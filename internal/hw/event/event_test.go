package event

import (
	"strings"
	"testing"
)

func TestChartModules(t *testing.T) {
	c := &Chart{}
	c.Add("LRU", 0, 100, 200)
	c.Add("LRU", 1, 150, 260)
	c.Add("GCU", 0, 300, 400)
	mods := c.Modules()
	if len(mods) != 2 || mods[0] != "LRU" || mods[1] != "GCU" {
		t.Errorf("modules %v", mods)
	}
}

func TestChartRender(t *testing.T) {
	c := &Chart{}
	c.Add("NB", 0, 0, 1000)
	c.Add("GP", 0, 1000, 2000)
	out := c.Render(40)
	if !strings.Contains(out, "NB") || !strings.Contains(out, "GP") || !strings.Contains(out, "#") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("expected 3 lines, got %d", len(lines))
	}
}
