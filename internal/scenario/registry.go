package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultName is the preset every experiment runs unless told otherwise:
// the paper's original world, byte for byte.
const DefaultName = "paper-baseline"

var (
	regMu sync.RWMutex
	// presets maps name -> spec; order keeps registration order so
	// catalogs list paper-baseline first and variants after it.
	presets = map[string]Spec{}
	order   []string
)

// Register adds a preset to the registry. The name must be non-empty and
// not already taken — presets are identities that results record, so
// silent replacement would corrupt provenance.
func Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: Register: empty preset name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := presets[s.Name]; dup {
		return fmt.Errorf("scenario: Register: preset %q already registered", s.Name)
	}
	presets[s.Name] = s
	order = append(order, s.Name)
	return nil
}

// MustRegister is Register for known-good built-ins; it panics on error.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Preset returns the named preset.
func Preset(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := presets[name]
	return s, ok
}

// Names lists the registered presets in registration order (built-ins
// first, in catalog order).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), order...)
}

// SortedNames lists the registered presets alphabetically, for error
// messages and shell completion.
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}
