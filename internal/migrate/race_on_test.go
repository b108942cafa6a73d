//go:build race

package migrate

// raceEnabled: allocation pins skip themselves under the race detector,
// which allocates on its own account.
const raceEnabled = true
