package server

import (
	"context"
	"errors"
	"math"
	"testing"

	"selest/internal/core"
	"selest/internal/faultinject"
	"selest/internal/kde"
	"selest/internal/online"
	"selest/internal/telemetry"
	"selest/internal/xrand"
)

// mergeSorts counts refits whose sorted view merged the previous one.
var mergeSorts = telemetry.Label("selest_online_refit_sorts_total", "path", "merge")

// viewSum is an order-sensitive checksum of a sorted view's bits.
func viewSum(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

// TestBuildersNeverWriteTheView: the primary and equi-depth rungs fit the
// reservoir's sorted view in place, and the view stays the reservoir's
// merge base. A checksum of the view a
// refit was handed, taken before and after the refit and again after the
// next refit has merged its replacements into a new view, pins that no
// fit writes to it and that the merge builds the next view elsewhere.
func TestBuildersNeverWriteTheView(t *testing.T) {
	for _, cfg := range []AttrConfig{
		{},
		{Rule: core.DPI, Boundary: kde.BoundaryKernels},
		{Method: core.BetaKernel},
		{Method: core.EquiDepth},
	} {
		cfg.DomainLo, cfg.DomainHi = 0, 1e6
		primary, fallbacks := cfg.builders()
		for rung, build := range []online.Builder{primary, fallbacks[0]} {
			var views [][]float64
			var sums []uint64
			watched := func(view []float64) (online.Fitted, error) {
				before := viewSum(view)
				fit, err := build(view)
				if after := viewSum(view); after != before {
					t.Fatalf("%s rung %d: the fit wrote to the view it was handed", cfg.methodOrDefault(), rung)
				}
				views, sums = append(views, view), append(sums, before)
				return fit, err
			}
			est, err := online.New(watched, online.Config{ReservoirSize: 1024, RefitEvery: -1, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(4)
			feed := func(n int) {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = math.Floor(r.Float64() * 1e6)
				}
				if err := est.InsertBatch(xs); err != nil {
					t.Fatal(err)
				}
				if err := est.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			merges := telemetry.Default.Counter(mergeSorts)
			feed(1024)
			before := merges.Value()
			feed(96) // replaces at most an eighth: the merge path
			feed(96)
			if merges.Value() < before+2 {
				t.Fatalf("%s rung %d: the refits did not merge their views", cfg.methodOrDefault(), rung)
			}
			for i, v := range views {
				if viewSum(v) != sums[i] {
					t.Fatalf("%s rung %d: view %d changed after the next merge", cfg.methodOrDefault(), rung, i)
				}
			}
		}
	}
}

// TestFallbackRungsFitEveryAcceptedRule: every fallback rung of every
// method and rule AttrConfig.validate accepts fits a sorted view, and no
// fallback repeats the primary method. The equi-depth rung takes the
// normal-scale rule in place of a kernel-only one (LSCV, beta-closed-form,
// exact-mise), which it cannot turn into a bin count.
func TestFallbackRungsFitEveryAcceptedRule(t *testing.T) {
	view := seq(2000)
	rules := append([]core.BandwidthRule{""}, core.BandwidthRules()...)
	for _, m := range core.Methods() {
		for _, rule := range rules {
			cfg := AttrConfig{DomainLo: 0, DomainHi: 1, Method: m, Rule: rule}
			if cfg.validate() != nil {
				continue
			}
			_, fallbacks := cfg.builders()
			for i, build := range fallbacks {
				fit, err := build(view)
				if err != nil {
					t.Errorf("%s/%s: fallback rung %d: %v", m, rule, i+1, err)
					continue
				}
				if fit.Name() == string(m) {
					t.Errorf("%s/%s: fallback rung %d repeats the primary method", m, rule, i+1)
				}
			}
		}
	}
}

// TestKernelOnlyRuleDegradesToEquiDepth: a beta-kernel attribute under
// the beta-closed-form rule whose primary fails serves an equi-depth fit
// after exactly three failed refits, not after three more refits spent on
// an equi-depth rung that cannot fit the rule.
func TestKernelOnlyRuleDegradesToEquiDepth(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	cfg.Method, cfg.Rule = core.BetaKernel, core.BetaClosedForm
	// Half a reservoir and no cadence: only the fresh reads below refit.
	cfg.ReservoirSize, cfg.RefitEvery = 2000, -1
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(1000)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 1000)
	faultinject.Enable(FaultRefitPrimary, errors.New("primary down"))
	var res EstimateResult
	for refit := 1; refit <= 3; refit++ {
		if res, err = s.Estimate(context.Background(), "acme", "price", 0.25, 0.5, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.est.Name(); got != "online(equi-depth)" {
		t.Fatalf("after three failed primary refits the attribute serves %s, want online(equi-depth)", got)
	}
	if got := a.est.FailedRefits(); got != 3 {
		t.Fatalf("failed refits = %d, want 3", got)
	}
	if res.Rung != "fresh" {
		t.Fatalf("third fresh read answered from the %s rung, want the equi-depth fit", res.Rung)
	}
}
