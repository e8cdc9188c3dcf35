// Package fixture exercises the suppress analyzer: malformed or stale
// //churnvet:ok comments are findings themselves, so a typo can never
// silently disable a real check and a dead waiver cannot linger.
package fixture

//churnvet:ok nosuch -- the analyzer does not exist // want "unknown analyzer"

//churnvet:ok lockflow -- a deleted analyzer cannot come back silently // want "unknown analyzer"

//churnvet:frobnicate cache // want "unknown churnvet directive"

//churnvet:okay maporder -- close but no // want "unknown churnvet directive"

/* want "names no analyzer" */ //churnvet:ok

//churnvet:ok maporder goroutine -- two names // want "exactly one analyzer"

/* want "missing the" */ //churnvet:ok maporder

/* want "empty reason" */ //churnvet:ok maporder --

//churnvet:ok maporder -- well-formed, and maporder is left out of the run, so never stale

/* want "stale suppression: nondet reports nothing" */ //churnvet:ok nondet -- nondet ran and nothing here reads the clock

// A plain comment mentioning churnvet in prose is not a directive.

// Placeholder is here so the package has a declaration.
var Placeholder = 0
