package bench

import (
	"flag"
	"os"
	"testing"
)

// parallel marks a real-clock shape test parallel: these tests spend
// their time asleep on shaped links and fault schedules (8.8 s of wall
// for 1.2 s of CPU when run one after another). Not under the race
// detector, whose ~10x CPU cost turns overlapped sleepers into
// contenders for the host's two cores and bends the timing shapes.
func parallel(t *testing.T) {
	if !raceEnabled {
		t.Parallel()
	}
}

// TestMain widens -parallel for this package: the default width is
// GOMAXPROCS — two on the CI host — which would still queue sleepers
// behind sleepers. An explicit -parallel on the command line wins.
func TestMain(m *testing.M) {
	flag.Parse()
	explicit := false
	flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "test.parallel" })
	if !explicit {
		_ = flag.Set("test.parallel", "8")
	}
	os.Exit(m.Run())
}
