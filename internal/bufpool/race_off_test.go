//go:build !race

package bufpool_test

const raceEnabled = false
