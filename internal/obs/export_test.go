package obs

// Record adds a ready-made duration to stage s without reading the clock,
// so tests can fill a recorder with known times.
func (r *Recorder) Record(s Stage, ns int64) {
	if r == nil {
		return
	}
	sl := &r.stages[s]
	sl.ns.Add(ns)
	sl.count.Add(1)
}

// StageStatByName returns the named stage row, if present.
func (rep Report) StageStatByName(jsonName string) (StageStat, bool) {
	for _, st := range rep.Stages {
		if st.Stage == jsonName {
			return st, true
		}
	}
	return StageStat{}, false
}
