package mitigation

import (
	"fmt"

	"autorfm/internal/plugin"
	"autorfm/internal/rng"
)

// Factory builds one policy instance from a parsed parameter spec and the
// bank's device-side PRNG. It runs once per bank at device construction.
type Factory func(spec *plugin.Spec, r *rng.Source) (Policy, error)

var registry = plugin.NewRegistry[Factory]("policy")

// Register adds a victim-refresh policy to the registry under info.Name.
// Call it from an init function; after that, sim.Config.Policy selects the
// implementation by name.
func Register(info plugin.Info, f Factory) { registry.Register(info, f) }

// Names returns the registered policy names, sorted.
func Names() []string { return registry.Names() }

// Catalog returns the registered policies as a -list-plugins section.
func Catalog() plugin.Section {
	return plugin.Section{Title: "mitigation policies", Infos: registry.Infos()}
}

// FromSpec resolves a selector — "name" or "name(key=value, ...)" — into a
// bound constructor. Parse and lookup errors surface here (config time);
// parameter errors surface on the returned constructor's first call. Like
// tracker.FromSpec, the constructor rewinds one private copy of the spec
// before every build and is not safe for concurrent use.
func FromSpec(selector string) (func(r *rng.Source) (Policy, error), error) {
	spec, err := plugin.ParseSpec(selector)
	if err != nil {
		return nil, fmt.Errorf("mitigation: %w", err)
	}
	f, err := registry.Lookup(spec.Name)
	if err != nil {
		return nil, fmt.Errorf("mitigation: %w", err)
	}
	return func(r *rng.Source) (Policy, error) {
		spec.Rewind()
		p, err := f(&spec, r)
		if err != nil {
			return nil, fmt.Errorf("mitigation policy %q: %w", spec.Name, err)
		}
		return p, nil
	}, nil
}

// ByName constructs a policy from its bare report name (the pre-registry
// entry point, kept for programmatic callers; parameterized selectors go
// through FromSpec).
func ByName(name string, r *rng.Source) (Policy, error) {
	build, err := FromSpec(name)
	if err != nil {
		return nil, err
	}
	return build(r)
}

// The built-in policies register themselves here.
func init() {
	Register(plugin.Info{
		Name: "baseline",
		Doc:  "always refresh the blast-radius-2 victims (±1, ±2)",
	}, func(s *plugin.Spec, r *rng.Source) (Policy, error) {
		if err := s.Finish(); err != nil {
			return nil, err
		}
		return NewBaseline(), nil
	})

	Register(plugin.Info{
		Name: "recursive",
		Doc:  "level-L mitigations refresh ±(2L-1), ±2L; defends transitive attacks by chaining",
	}, func(s *plugin.Spec, r *rng.Source) (Policy, error) {
		if err := s.Finish(); err != nil {
			return nil, err
		}
		return NewRecursive(), nil
	})

	Register(plugin.Info{
		Name: "fractal",
		Doc:  "±1 plus one pair at distance d with probability 2^(1-d) (the paper's Fractal Mitigation)",
	}, func(s *plugin.Spec, r *rng.Source) (Policy, error) {
		if err := s.Finish(); err != nil {
			return nil, err
		}
		return NewFractal(r), nil
	})
}
