//go:build !race

package migrate

const raceEnabled = false
