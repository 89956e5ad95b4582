package r2tab

// Entries returns the number of table entries (the hardware memory
// footprint: entries × 8 coefficients).
func (t *Table) Entries() int { return len(t.ent) }
