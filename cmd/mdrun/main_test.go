package main

import (
	"flag"
	"strings"
	"testing"
)

// TestConfigString pins the string whose hash keys mdrun's checkpoint
// store, for the default flags and for a tuned run: a change to either
// would orphan every checkpoint written before it, silently, since the
// store refuses a mismatched hash as a different run.
func TestConfigString(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, `mdrun in="" side=10 method=tme kernel= rc=1 grid=16 M=3 gc=8 L=1 T=300 nvt=false seed=1 dt=0.001`},
		{[]string{"-tune", "-errbudget", "1e-3"}, `mdrun in="" side=10 method=tme kernel=gauss rc=1 grid=16 M=2 gc=8 L=1 T=300 nvt=false seed=1 dt=0.001 tune=true errbudget=0.001 skin=0.1 retune=false`},
	}
	for _, tc := range cases {
		parseFlags(t, tc.args)
		plan, _, err := flagPlan()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := configString(plan); got != tc.want {
			t.Errorf("%v:\n got %s\nwant %s", tc.args, got, tc.want)
		}
	}
}

// parseFlags resets every mdrun flag to its default, then parses args.
func parseFlags(t *testing.T, args []string) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			f.Value.Set(f.DefValue)
		}
	})
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFlags: values mdrun cannot run with are refused with a one-line
// error before anything is built; -report 0 used to panic dividing by
// zero, -side -1 sizing a slice, and -T -5 ran to the end on NaN
// velocities, while a negative -checkpoint-every and -checkpoint-keep 0
// were quietly read as "off" and 3, a cadence without -checkpoint-dir
// wrote nothing, and a directory without a cadence or -resume was never
// used.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // error substring; "" for accepted flags
	}{
		{nil, ""},
		{[]string{"-side", "1", "-report", "1"}, ""},
		{[]string{"-report", "0"}, "-report 0"},
		{[]string{"-report", "-3"}, "-report -3"},
		{[]string{"-side", "-1"}, "-side -1"},
		{[]string{"-side", "0"}, "-side 0"},
		{[]string{"-retune"}, "-retune requires -tune"},
		{[]string{"-T", "-5"}, "-T -5"},
		{[]string{"-T", "0"}, "-T 0"},
		{[]string{"-T", "NaN"}, "-T NaN"},
		{[]string{"-T", "+Inf"}, "-T +Inf"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every -1"},
		{[]string{"-checkpoint-keep", "0"}, "-checkpoint-keep 0"},
		{[]string{"-checkpoint-every", "10", "-checkpoint-keep", "1", "-checkpoint-dir", "ck"}, ""},
		{[]string{"-checkpoint-dir", "ck", "-resume"}, ""},
		{[]string{"-checkpoint-every", "10"}, "-checkpoint-dir"},
		{[]string{"-checkpoint-dir", "ck"}, `-checkpoint-dir "ck"`},
		{[]string{"-resume"}, "-checkpoint-dir"},
	} {
		parseFlags(t, tc.args)
		err := checkFlags()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v: checkFlags() = %v, want %q", tc.args, err, tc.want)
		}
	}
}
