package ckpt

import (
	"fmt"
	"sort"
	"strings"
)

// The names below export test helpers of this package to its external
// tests, which import ckpttest and so cannot be in package ckpt.

// TestSnap is testSnap.
var TestSnap = testSnap

// TmpSuffix is the suffix of a checkpoint's temp file.
const TmpSuffix = tmpSuffix

// DumpDurable returns a deterministic description of the crash-surviving
// state, for test assertions.
func (m *MemFS) DumpDurable() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.durable))
	for name := range m.durable {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, len(m.inodes[m.durable[name]].durable))
	}
	return b.String()
}
