//go:build !race

package capability

const raceEnabled = false
