package main

import (
	"strings"
	"testing"

	"tme4a/internal/serve"
)

// TestCheckFlags: a count flag at 0 or below is refused naming the flag,
// where serve.Config's defaults used to replace it silently; -ckpt-every 0
// in particular promised to disable checkpointing and did not.
func TestCheckFlags(t *testing.T) {
	ok := serve.Config{Dir: "d", MaxActive: 8, QueueCap: 64, Quantum: 25, CkptEvery: 200, CkptKeep: 3, EnergyEvery: 10}
	for _, tc := range []struct {
		edit func(*serve.Config)
		want string // error substring; "" for accepted flags
	}{
		{func(*serve.Config) {}, ""},
		{func(c *serve.Config) { c.Dir = "" }, ""},
		{func(c *serve.Config) {
			c.MaxActive = 1
			c.QueueCap = 1
			c.Quantum = 1
			c.CkptEvery = 1
			c.CkptKeep = 1
			c.EnergyEvery = 1
		}, ""},
		{func(c *serve.Config) { c.MaxActive = 0 }, "-max-active 0"},
		{func(c *serve.Config) { c.QueueCap = -1 }, "-queue -1"},
		{func(c *serve.Config) { c.Quantum = 0 }, "-quantum 0"},
		{func(c *serve.Config) { c.CkptEvery = 0 }, "-ckpt-every 0"},
		{func(c *serve.Config) { c.CkptKeep = 0 }, "-ckpt-keep 0"},
		{func(c *serve.Config) { c.EnergyEvery = -5 }, "-energy-every -5"},
	} {
		c := ok
		tc.edit(&c)
		err := checkFlags(c)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: checkFlags() = %v, want %q", c, err, tc.want)
		}
	}
}
