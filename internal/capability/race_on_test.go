//go:build race

package capability

// raceEnabled: the race detector makes sync.Pool drop a quarter of what
// it is handed, so allocation pins over pooled state skip themselves.
const raceEnabled = true
