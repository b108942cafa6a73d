//go:build race

package core

// raceEnabled: allocation pins skip themselves under the race detector,
// which allocates on its own account.
const raceEnabled = true
