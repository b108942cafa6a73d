//go:build race

package bufpool_test

// raceEnabled: the race detector makes sync.Pool drop a quarter of what
// it is handed, so allocation pins over pooled buffers skip themselves.
const raceEnabled = true
