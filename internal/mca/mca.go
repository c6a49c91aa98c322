// Package mca reproduces Open MPI's Modular Component Architecture: the
// mechanism by which internal APIs ("frameworks") acquire interchangeable
// implementations ("components") selected at runtime.
//
// The paper's whole design rests on this substrate (§3): each of the five
// checkpoint/restart tasks becomes a framework (SNAPC, FILEM, CRCP, CRS)
// whose components can be swapped with an MCA parameter, enabling
// side-by-side comparison of techniques "keeping all other variables
// constant". Frameworks here are typed via generics so a CRS component
// can expose a different API from a FILEM component while sharing the
// registration, parameterization and selection machinery.
package mca

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Component is the contract every framework component satisfies.
// Components additionally implement their framework's typed API.
type Component interface {
	// Name is the component's selection name, e.g. "blcr" or "bkmrk".
	Name() string
	// Priority orders components when no explicit selection is made;
	// the highest priority available component wins.
	Priority() int
}

// Params carries MCA parameters: flat string key/value pairs in Open MPI's
// convention, e.g. "crs" selects the CRS component and "crs_simcr_verbose"
// configures it. Params values are immutable after Set; a nil *Params is
// valid and empty so components can take optional parameters.
type Params struct {
	mu sync.RWMutex
	kv map[string]string
}

// NewParams returns an empty parameter set.
func NewParams() *Params {
	return &Params{kv: make(map[string]string)}
}

// ParseParams parses a list of "key=value" strings, as produced by
// repeated --mca flags on the command line tools.
func ParseParams(args []string) (*Params, error) {
	p := NewParams()
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("mca: malformed parameter %q (want key=value)", a)
		}
		p.Set(k, v)
	}
	return p, nil
}

// Set stores a parameter.
func (p *Params) Set(key, value string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.kv == nil {
		p.kv = make(map[string]string)
	}
	p.kv[key] = value
}

// Lookup returns the raw value and whether it is present.
func (p *Params) Lookup(key string) (string, bool) {
	if p == nil {
		return "", false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.kv[key]
	return v, ok
}

// String returns the value for key, or def if unset.
func (p *Params) String(key, def string) string {
	if v, ok := p.Lookup(key); ok {
		return v
	}
	return def
}

// Int returns the integer value for key, or def if unset or malformed.
func (p *Params) Int(key string, def int) int {
	v, ok := p.Lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// Bool returns the boolean value for key, or def if unset or malformed.
// Accepted spellings follow strconv.ParseBool.
func (p *Params) Bool(key string, def bool) bool {
	v, ok := p.Lookup(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// Duration returns the duration value for key, or def if unset/malformed.
func (p *Params) Duration(key string, def time.Duration) time.Duration {
	v, ok := p.Lookup(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return def
	}
	return d
}

// Bytes returns the byte-size value for key, or def if unset or
// malformed. Values accept a plain integer or a human-readable size
// suffix, case-insensitive: B, KB/KiB, MB/MiB, GB/GiB (all binary,
// matching Open MPI's convention of power-of-two tuning knobs), so
// `--mca pml_eager_limit 4KB` reads as 4096.
func (p *Params) Bytes(key string, def int64) int64 {
	v, ok := p.Lookup(key)
	if !ok {
		return def
	}
	n, err := ParseBytes(v)
	if err != nil {
		return def
	}
	return n
}

// ParseBytes parses a human-readable byte size: "4096", "4KB", "4KiB",
// "1mb", "2GiB", "512B". Suffixes are binary multiples; a size is
// digits and at most one suffix, and must fit an int64.
func ParseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, unit := range []string{"kib", "mib", "gib", "kb", "mb", "gb", "k", "m", "g", "b"} {
		if strings.HasSuffix(t, unit) {
			t = strings.TrimSpace(strings.TrimSuffix(t, unit))
			if shift := strings.IndexByte("kmg", unit[0]); shift >= 0 {
				mult = 1 << (10 * (shift + 1))
			}
			break
		}
	}
	if t == "" || strings.Trim(t, "0123456789") != "" {
		return 0, fmt.Errorf("mca: bad byte size %q", s)
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("mca: byte size %q overflows int64", s)
	}
	return n * mult, nil
}

// Keys returns all parameter keys in sorted order.
func (p *Params) Keys() []string {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	keys := make([]string, 0, len(p.kv))
	for k := range p.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns an independent copy of the parameter set.
func (p *Params) Clone() *Params {
	c := NewParams()
	if p == nil {
		return c
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for k, v := range p.kv {
		c.kv[k] = v
	}
	return c
}

// Map returns a copy of the parameters as a plain map, for serialization
// into snapshot metadata (the paper stores the job's runtime parameters
// in the global snapshot so restart needs no user-recalled flags).
func (p *Params) Map() map[string]string {
	out := make(map[string]string)
	if p == nil {
		return out
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for k, v := range p.kv {
		out[k] = v
	}
	return out
}

// FromMap rebuilds a parameter set from a plain map.
func FromMap(m map[string]string) *Params {
	p := NewParams()
	for k, v := range m {
		p.kv[k] = v
	}
	return p
}

// Framework is a typed registry of components implementing one internal
// API. FrameworkName is the selection parameter key ("crs", "snapc",
// "filem", "crcp", "plm", ...).
type Framework[T Component] struct {
	name string

	mu         sync.RWMutex
	components map[string]T
}

// NewFramework returns an empty framework registry named name.
func NewFramework[T Component](name string) *Framework[T] {
	return &Framework[T]{name: name, components: make(map[string]T)}
}

// Name returns the framework's name.
func (f *Framework[T]) Name() string { return f.name }

// Register adds a component. Registering two components with the same
// name is a programming error and returns an error rather than silently
// replacing, so misconfigured builds fail loudly.
func (f *Framework[T]) Register(c T) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.components[c.Name()]; dup {
		return fmt.Errorf("mca: framework %q: duplicate component %q", f.name, c.Name())
	}
	f.components[c.Name()] = c
	return nil
}

// MustRegister is Register that panics on error, for static registration
// of built-in components at framework construction time.
func (f *Framework[T]) MustRegister(c T) {
	if err := f.Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the named component.
func (f *Framework[T]) Lookup(name string) (T, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	c, ok := f.components[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("mca: framework %q: no component %q (have %s)",
			f.name, name, strings.Join(f.namesLocked(), ", "))
	}
	return c, nil
}

// Names returns the registered component names in sorted order.
func (f *Framework[T]) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.namesLocked()
}

func (f *Framework[T]) namesLocked() []string {
	names := make([]string, 0, len(f.components))
	for n := range f.components {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Select picks a component. If params contains a value under the
// framework's name (e.g. "crs=self"), that component is required to
// exist; otherwise the highest-priority registered component is chosen,
// with ties broken by name for determinism.
func (f *Framework[T]) Select(params *Params) (T, error) {
	var zero T
	if want, ok := params.Lookup(f.name); ok {
		c, err := f.Lookup(want)
		if err != nil {
			return zero, err
		}
		return c, nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.components) == 0 {
		return zero, fmt.Errorf("mca: framework %q: no components registered", f.name)
	}
	var best T
	bestSet := false
	for _, name := range f.namesLocked() {
		c := f.components[name]
		if !bestSet || c.Priority() > best.Priority() {
			best = c
			bestSet = true
		}
	}
	return best, nil
}
