package par

// stopTeam makes every worker exit and waits for them; the next
// multi-worker call grows the team again.
func stopTeam() {
	team.mu.Lock()
	team.stop = true
	team.wake.Broadcast()
	team.mu.Unlock()
	team.wg.Wait()
	team.mu.Lock()
	team.stop, team.idle = false, 0
	team.size.Store(0)
	team.mu.Unlock()
}
