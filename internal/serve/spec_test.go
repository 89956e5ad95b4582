package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/water"
)

// TestDecodeSpecStrict pins the strict decode contract: typos, trailing
// garbage and oversized documents are hard errors.
func TestDecodeSpecStrict(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"minimal", `{"method":"cutoff","steps":10}`, ""},
		{"unknown field", `{"method":"cutoff","steps":10,"sides":4}`, "unknown field"},
		{"trailing data", `{"steps":10}{"steps":20}`, "trailing data"},
		{"not json", `steps=10`, "decoding spec"},
		{"wrong type", `{"steps":"ten"}`, "decoding spec"},
		{"oversize", `{"name":"` + strings.Repeat("x", maxSpecBytes) + `"}`, "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec([]byte(tc.body))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeSpec: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("DecodeSpec error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateTable drives every rejected field through Normalize+Validate
// — the exact path a POST /jobs body takes — and checks the solver
// packages' own Params.Validate messages surface verbatim.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"unknown method", func(sp *Spec) { sp.Method = "pppm" }, "unknown method"},
		{"unknown kernel", func(sp *Spec) { sp.Method = "tme"; sp.Kernel = "cauchy" }, "unknown kernel family"},
		{"kernel on non-tme", func(sp *Spec) { sp.Method = "spme"; sp.Kernel = "gauss" }, "applies only to method tme"},
		{"side too small", func(sp *Spec) { sp.Side = 1 }, "side 1 out of range"},
		{"side too large", func(sp *Spec) { sp.Side = 100 }, "side 100 out of range"},
		{"zero steps", func(sp *Spec) { sp.Steps = 0 }, "steps 0 must be positive"},
		{"negative steps", func(sp *Spec) { sp.Steps = -5 }, "steps -5 must be positive"},
		{"steps budget", func(sp *Spec) { sp.Steps = maxSteps + 1 }, "exceeds"},
		{"negative dt", func(sp *Spec) { sp.Dt = -0.001 }, "dt"},
		{"huge dt", func(sp *Spec) { sp.Dt = 1 }, "dt"},
		{"rc beyond half box", func(sp *Spec) { sp.Rc = 10 }, "rc 10"},
		{"negative rc", func(sp *Spec) { sp.Rc = -1 }, "rc -1"},
		{"negative skin", func(sp *Spec) { sp.Skin = -0.1 }, "skin"},
		{"mesh reach", func(sp *Spec) { sp.Method = "spme"; sp.Rc = 0.15; sp.Skin = 0.1 }, "rc + skin = 0.25 nm"},
		{"fat skin", func(sp *Spec) { sp.Skin = 2 }, "skin"},
		{"cold start", func(sp *Spec) { sp.Temp = -3 }, "temp"},
		{"hot start", func(sp *Spec) { sp.Temp = 5000 }, "temp"},
		{"negative equil", func(sp *Spec) { sp.Equil = -1 }, "equil"},
		{"equil budget", func(sp *Spec) { sp.Equil = maxEquil + 1 }, "equil"},
		// Errors owned by the solver packages, surfaced verbatim.
		{"spme non-pow2 grid", func(sp *Spec) { sp.Method = "spme"; sp.Grid = 17 }, "not a power of two"},
		{"tme grid vs levels", func(sp *Spec) { sp.Method = "tme"; sp.Grid = 20; sp.Levels = 3 }, "not divisible"},
		{"useries M range", func(sp *Spec) { sp.Method = "tme"; sp.Kernel = "useries"; sp.M = 40 }, "u-series"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := Spec{Method: "cutoff", Side: 2, Steps: 50}
			tc.mutate(&sp)
			sp.Normalize()
			err := sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestNormalizeStable checks Normalize is idempotent and the config hash
// is invariant under a store/decode round trip — the property the
// checkpoint guard depends on across daemon restarts.
func TestNormalizeStable(t *testing.T) {
	sp := Spec{Method: "tme", Side: 3, Steps: 100}
	sp.Normalize()
	h1 := sp.ConfigHash()
	again := sp
	again.Normalize()
	if again != sp {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, sp)
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	back.Normalize()
	if back.ConfigHash() != h1 {
		t.Fatalf("config hash drifted across marshal round trip: %016x vs %016x", back.ConfigHash(), h1)
	}
}

// TestNormalizeSkin pins Skin's default: 0 becomes 0.1 (a served job
// always runs a Verlet list), and an explicit skin is kept.
func TestNormalizeSkin(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{0, 0.1}, {0.05, 0.05}} {
		sp := Spec{Method: "tme", Side: 3, Steps: 100, Skin: c.in}
		sp.Normalize()
		if sp.Skin != c.want {
			t.Errorf("Skin %g normalizes to %g, want %g", c.in, sp.Skin, c.want)
		}
	}
}

// TestAutoSpecResolves: a method-"auto" submission is rewritten at
// Normalize to the tuner's concrete plan — the stored job and its config
// hash never contain "auto" — and the resolved spec passes the same
// Validate as an explicit one.
func TestAutoSpecResolves(t *testing.T) {
	sp := Spec{Method: "auto", Side: 6, Steps: 100, ErrBudget: 1e-3}
	sp.Normalize()
	if sp.Method == "auto" || sp.Method == "" {
		t.Fatalf("auto method not resolved: %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("resolved auto spec invalid: %v", err)
	}
	plan, err := tune.PlanFor(tune.Request{Box: sp.Box(), Atoms: 3 * 6 * 6 * 6, ErrBudget: 1e-3})
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	if sp.Method != plan.Method || sp.Rc != plan.Rc || sp.Grid != plan.Grid[0] {
		t.Errorf("spec %+v does not match the tuner's plan %s", sp, plan.String())
	}

	// The budget is part of the config hash, and a different budget that
	// picks a different plan must hash differently.
	loose := Spec{Method: "auto", Side: 6, Steps: 100, ErrBudget: 5e-3}
	loose.Normalize()
	if loose.ConfigHash() == sp.ConfigHash() {
		t.Error("different budgets produced the same config hash")
	}

	// Idempotent: re-normalizing the resolved spec changes nothing.
	again := sp
	again.Normalize()
	if again != sp {
		t.Errorf("resolved spec not stable under Normalize: %+v vs %+v", again, sp)
	}
}

// TestAutoSpecErrors: planning failures surface through Validate as
// typed tuner errors; err_budget is bounds-checked even for explicit
// methods.
func TestAutoSpecErrors(t *testing.T) {
	missing := Spec{Method: "auto", Side: 4, Steps: 10}
	missing.Normalize()
	if err := missing.Validate(); err == nil || !strings.Contains(err.Error(), "auto planning") {
		t.Errorf("auto without err_budget: %v, want planning error", err)
	}
	infeasible := Spec{Method: "auto", Side: 4, Steps: 10, ErrBudget: 2e-6}
	infeasible.Normalize()
	if err := infeasible.Validate(); err == nil || !strings.Contains(err.Error(), "no plan meets error budget") {
		t.Errorf("infeasible budget: %v, want infeasible planning error", err)
	}
	bad := Spec{Method: "tme", Side: 4, Steps: 10, ErrBudget: -1}
	bad.Normalize()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "err_budget") {
		t.Errorf("negative err_budget: %v, want range error", err)
	}
}

// TestConfigHashPinned pins the checkpoint config hash of a minimal spec
// and of a method-"auto" one: a change to either orphans every served
// job's checkpoints, silently, since the store refuses a mismatched hash
// as a different run.
func TestConfigHashPinned(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		want uint64
	}{
		{`{"method":"tme","side":4,"steps":200}`, 0x26863df947dbcfe6},
		{`{"method":"auto","side":4,"steps":200,"err_budget":1e-3}`, 0x2bd61ddbf0c7c001},
	} {
		sp, err := DecodeSpec([]byte(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		sp.Normalize()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if got := sp.ConfigHash(); got != tc.want {
			t.Errorf("%s: config hash %#016x, want %#016x (%s)", tc.doc, got, tc.want, sp.canonical())
		}
	}
}

// TestSpecRunsItsPlan: for each method, a spec run through RunDirect must
// land on the state hash of the run plan it stands for — written out here
// field by field, at the spec defaults — stepped directly from the same
// water box. It fences the one mapping from a served spec onto a run.
func TestSpecRunsItsPlan(t *testing.T) {
	const (
		side  = 3
		steps = 10
		seed  = 1
		equil = 50
	)
	rc := math.Min(0.9, 0.45*water.CubicBoxFor(side * side * side).L[0])
	for _, p := range []tune.Plan{
		{Method: "cutoff", Rc: rc, Skin: 0.1},
		{Method: "spme", Rc: rc, Skin: 0.1, Grid: [3]int{16, 16, 16}, Order: 6},
		{Method: "tme", Rc: rc, Skin: 0.1, Grid: [3]int{16, 16, 16}, Gc: 8, M: 3, Levels: 1, Order: 6},
		{Method: "msm", Rc: rc, Skin: 0.1, Grid: [3]int{16, 16, 16}, Gc: 8, Levels: 1, Order: 6},
	} {
		t.Run(p.Method, func(t *testing.T) {
			served, err := Spec{Method: p.Method, Side: side, Steps: steps}.RunDirect()
			if err != nil {
				t.Fatal(err)
			}
			sys := water.Fresh(side, seed, equil, 0.001, 300, rc)
			water.Draw(sys, 300, seed)
			integ, err := p.NewIntegrator(sys.Box, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < steps; s++ {
				integ.Step(sys)
			}
			if direct := md.StateHash(sys); served != direct {
				t.Errorf("served spec hash %016x, plan %s stepped directly %016x", served, p.String(), direct)
			}
		})
	}
}

// FuzzJobSpecDecode fuzzes the submission decoder: arbitrary bytes must
// never panic, and any accepted document must survive a normalize →
// marshal → decode round trip with an identical spec and config hash.
func FuzzJobSpecDecode(f *testing.F) {
	f.Add([]byte(`{"method":"tme","steps":200}`))
	f.Add([]byte(`{"method":"cutoff","side":2,"steps":10,"seed":7}`))
	f.Add([]byte(`{"method":"spme","grid":32,"steps":50,"dt":0.002,"rc":0.5}`))
	f.Add([]byte(`{"method":"tme","kernel":"useries","m":6,"levels":2,"steps":1}`))
	f.Add([]byte(`{"method":"auto","err_budget":0.001,"side":4,"steps":20}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"steps":1e9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeSpec(data)
		if err != nil {
			return
		}
		sp.Normalize()
		if verr := sp.Validate(); verr != nil {
			return // rejected specs only need a clean error
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("valid spec failed to marshal: %v (%+v)", err, sp)
		}
		back, err := DecodeSpec(out)
		if err != nil {
			t.Fatalf("round trip decode failed: %v on %s", err, out)
		}
		back.Normalize()
		if back != sp {
			t.Fatalf("round trip changed the spec: %+v vs %+v", back, sp)
		}
		if back.ConfigHash() != sp.ConfigHash() {
			t.Fatalf("round trip changed the config hash")
		}
	})
}
