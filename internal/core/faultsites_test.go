package core

import (
	"errors"
	"testing"

	"selest/internal/faultinject"
	"selest/internal/fsort"
)

// TestFitPathFaultSites enables each fault-injection site behind Build,
// one at a time, and requires Build and BuildSorted to fail with the
// injected error under a method and rule that reach the site. It pins
// that every rule and builder kept its one fault site when its entry
// points collapsed to one.
func TestFitPathFaultSites(t *testing.T) {
	defer faultinject.Reset()
	samples := testSamples(600, 31)
	sorted := append([]float64(nil), samples...)
	fsort.Float64s(sorted)
	for _, c := range []struct {
		site string
		opts Options
	}{
		{"core.build.kernel", Options{Method: Kernel}},
		{"bandwidth.normal-scale", Options{Method: Kernel, Rule: NormalScale}},
		{"bandwidth.normal-scale-binwidth", Options{Method: EquiWidth, Rule: NormalScale}},
		{"bandwidth.dpi", Options{Method: Kernel, Rule: DPI}},
		{"bandwidth.dpi-binwidth", Options{Method: EquiDepth, Rule: DPI}},
		{"bandwidth.lscv", Options{Method: Kernel, Rule: LSCV}},
		{"bandwidth.beta-closed-form", Options{Method: BetaKernel}},
		{"bandwidth.exact-mise", Options{Method: BetaKernel, Rule: ExactMISE}},
		{"hybrid.build", Options{Method: Hybrid}},
		{"hybrid.changepoints", Options{Method: Hybrid}},
	} {
		c.opts.DomainLo, c.opts.DomainHi = 0, 1000
		injected := errors.New("injected at " + c.site)
		faultinject.Enable(c.site, injected)
		if _, err := Build(samples, c.opts); !errors.Is(err, injected) {
			t.Errorf("%s: Build error %v, want the injected fault", c.site, err)
		}
		if _, err := BuildSorted(sorted, c.opts); !errors.Is(err, injected) {
			t.Errorf("%s: BuildSorted error %v, want the injected fault", c.site, err)
		}
		faultinject.Reset()
		if _, err := Build(samples, c.opts); err != nil {
			t.Errorf("%s: Build without the fault: %v", c.site, err)
		}
	}
}
