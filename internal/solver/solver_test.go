package solver_test

import (
	"math/rand"
	"strings"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/msm"
	"tme4a/internal/obs"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

func neutralRandomSystem(rng *rand.Rand, n int, box vec.Box) ([]vec.V, []float64) {
	pos := make([]vec.V, n)
	q := make([]float64, n)
	var qt float64
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64()
		qt += q[i]
	}
	for i := range q {
		q[i] -= qt / float64(n)
	}
	return pos, q
}

func testConfig() solver.Config {
	return solver.Config{
		Alpha:  spme.AlphaFromRTol(1.0, 1e-4),
		Rc:     1.0,
		Order:  6,
		N:      [3]int{16, 16, 16},
		Levels: 1,
		M:      2,
		Gc:     8,
	}
}

// directTwin constructs the same solver the registry constructor should
// build, through the concrete package API.
func directTwin(t *testing.T, name string, cfg solver.Config, box vec.Box) interface {
	LongRange(pos []vec.V, q []float64, f []vec.V) float64
} {
	t.Helper()
	switch name {
	case "spme":
		return spme.New(spme.Params{Alpha: cfg.Alpha, Rc: cfg.Rc, Order: cfg.Order, N: cfg.N}, box)
	case "tme":
		return core.New(core.Params{
			Alpha: cfg.Alpha, Rc: cfg.Rc, Order: cfg.Order, N: cfg.N,
			Levels: cfg.Levels, M: cfg.M, Gc: cfg.Gc,
			Kernel: core.KernelFamily(cfg.Kernel),
		}, box)
	case "msm":
		return msm.New(msm.Params{
			Alpha: cfg.Alpha, Rc: cfg.Rc, Order: cfg.Order, N: cfg.N,
			Levels: cfg.Levels, Gc: cfg.Gc,
		}, box)
	default:
		t.Fatalf("no direct twin for method %q — update this test alongside the registry", name)
		return nil
	}
}

// TestRegistryRoundTrip pins the tentpole contract: for every registered
// method, the registry-built solver is bitwise interchangeable with direct
// construction — identical long-range energy and force bits on the same
// system. Run over both kernel families for methods that honor the field.
func TestRegistryRoundTrip(t *testing.T) {
	names := solver.Names()
	if len(names) < 3 {
		t.Fatalf("expected at least spme, tme, msm registered; got %v", names)
	}
	box := vec.Cubic(4)
	rng := rand.New(rand.NewSource(11))
	pos, q := neutralRandomSystem(rng, 64, box)
	for _, name := range names {
		kernels := []string{""}
		if name == "tme" {
			kernels = []string{"", "gauss", "useries"}
		}
		for _, kern := range kernels {
			cfg := testConfig()
			cfg.Kernel = kern
			s, err := solver.New(name, cfg, box)
			if err != nil {
				t.Errorf("%s/%q: registry construction failed: %v", name, kern, err)
				continue
			}
			if s.Describe() == "" {
				t.Errorf("%s/%q: empty Describe()", name, kern)
			}
			twin := directTwin(t, name, cfg, box)
			fr, ft := make([]vec.V, len(pos)), make([]vec.V, len(pos))
			er := s.LongRange(pos, q, fr)
			et := twin.LongRange(pos, q, ft)
			if er != et {
				t.Errorf("%s/%q: registry energy %v != direct %v", name, kern, er, et)
			}
			for i := range fr {
				if fr[i] != ft[i] {
					t.Errorf("%s/%q: force %d differs bitwise: %v vs %v", name, kern, i, fr[i], ft[i])
					break
				}
			}
		}
	}
}

// TestRegistryGaussIsDefaultKernel: the empty kernel string selects the
// Gauss–Legendre family bit-for-bit.
func TestRegistryGaussIsDefaultKernel(t *testing.T) {
	box := vec.Cubic(4)
	rng := rand.New(rand.NewSource(12))
	pos, q := neutralRandomSystem(rng, 48, box)
	cfgDefault := testConfig()
	cfgGauss := testConfig()
	cfgGauss.Kernel = "gauss"
	sd, err := solver.New("tme", cfgDefault, box)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := solver.New("tme", cfgGauss, box)
	if err != nil {
		t.Fatal(err)
	}
	if ed, eg := sd.LongRange(pos, q, nil), sg.LongRange(pos, q, nil); ed != eg {
		t.Errorf("default kernel energy %v != gauss %v", ed, eg)
	}
}

func TestRegistryUnknownMethod(t *testing.T) {
	_, err := solver.New("p3m", testConfig(), vec.Cubic(4))
	if err == nil {
		t.Fatal("expected error for unknown method")
	}
	for _, name := range solver.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-method error %q does not list registered method %q", err, name)
		}
	}
	if verr := solver.Validate("p3m", testConfig()); verr == nil || verr.Error() != err.Error() {
		t.Errorf("Validate() = %v, New() = %v, want the same error", verr, err)
	}
	for _, name := range solver.Names() {
		if verr := solver.Validate(name, testConfig()); verr != nil {
			t.Errorf("Validate(%s) rejects the config New accepts: %v", name, verr)
		}
	}
}

// TestRegistryValidationErrors: every constructor surfaces bad parameters
// as errors (never panics) through the registry.
func TestRegistryValidationErrors(t *testing.T) {
	box := vec.Cubic(4)
	bad := []struct {
		label  string
		mutate func(*solver.Config)
	}{
		{"odd order", func(c *solver.Config) { c.Order = 5 }},
		{"zero alpha", func(c *solver.Config) { c.Alpha = 0 }},
		{"negative rc", func(c *solver.Config) { c.Rc = -1 }},
		{"non-power-of-two grid", func(c *solver.Config) { c.N = [3]int{18, 18, 18} }},
	}
	for _, name := range solver.Names() {
		for _, tc := range bad {
			cfg := testConfig()
			tc.mutate(&cfg)
			s, err := solver.New(name, cfg, box)
			if err == nil {
				t.Errorf("%s: %s accepted (got %s)", name, tc.label, s.Describe())
			} else if verr := solver.Validate(name, cfg); verr == nil || verr.Error() != err.Error() {
				t.Errorf("%s: %s: Validate() = %v, New() = %v, want the same error", name, tc.label, verr, err)
			}
		}
	}
	// TME-only: u-series beyond the tabulated range and unknown families.
	cfg := testConfig()
	cfg.Kernel = "useries"
	cfg.M = 9
	if _, err := solver.New("tme", cfg, box); err == nil {
		t.Error("tme accepted useries M=9 beyond the tabulated range")
	}
	cfg = testConfig()
	cfg.Kernel = "hermite"
	if _, err := solver.New("tme", cfg, box); err == nil {
		t.Error("tme accepted unknown kernel family")
	}
}

func TestNamesSorted(t *testing.T) {
	names := solver.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted/unique: %v", names)
		}
	}
}

// TestMethodsDeterministic pins the registry listing surface the serve
// tier exposes at /methods: Methods() is sorted by name, carries a doc
// line per method, and never varies run to run (no map-range ordering
// leak).
func TestMethodsDeterministic(t *testing.T) {
	ref := solver.Methods()
	if len(ref) != len(solver.Names()) {
		t.Fatalf("Methods() has %d entries, Names() %d", len(ref), len(solver.Names()))
	}
	for i, name := range solver.Names() {
		if ref[i].Name != name {
			t.Errorf("Methods()[%d] = %q, want %q (sorted order)", i, ref[i].Name, name)
		}
		if ref[i].Doc == "" {
			t.Errorf("method %q registered without a doc line", ref[i].Name)
		}
	}
	for trial := 0; trial < 50; trial++ {
		got := solver.Methods()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("Methods() ordering varies: trial %d entry %d = %+v, want %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestObsWiring checks that SetObs on every registered solver reaches the
// mesher, the cycle's top-solve span and the FFT plan below it, attached
// and detached.
func TestObsWiring(t *testing.T) {
	box := vec.Cubic(4)
	rng := rand.New(rand.NewSource(13))
	pos, q := neutralRandomSystem(rng, 32, box)
	for _, name := range solver.Names() {
		s, err := solver.New(name, testConfig(), box)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := obs.New()
		s.SetObs(rec)
		s.LongRange(pos, q, nil)
		assign, top, fft := rec.StageCount(obs.StageAssign), rec.StageCount(obs.StageTopSPME), rec.StageCount(obs.StageFFT)
		if assign != 1 || top != 1 || fft != 2 {
			t.Errorf("%s: attached recorder saw %d assign, %d top-solve, %d fft spans, want 1, 1, 2", name, assign, top, fft)
		}
		s.SetObs(nil)
		s.LongRange(pos, q, nil)
		if rec.StageCount(obs.StageAssign) != 1 {
			t.Errorf("%s: detached recorder still counts", name)
		}
	}
}
