package bufpool_test

import (
	"runtime"
	"testing"
	"unsafe"

	"openhpcxx/internal/bufpool"
)

func base(b []byte) *byte { return unsafe.SliceData(b) }

func TestClassesFitAndWasteAtMostAnEighth(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 80, 81, 127, 128, 129, 260, 4096, 4097, 256<<10 + 100, 1 << 20, 4<<20 - 1, 4 << 20} {
		b := bufpool.Get(n)
		if len(b) != n || cap(b) < n || cap(b) > max(64, n+n/8) {
			t.Errorf("Get(%d): len %d cap %d, want len %d and cap within an eighth above it", n, len(b), cap(b), n)
		}
		// The capacity Get chose is one Put takes back.
		bufpool.Put(b)
		if raceEnabled {
			continue
		}
		if again := bufpool.Get(n); base(again) != base(b) {
			t.Errorf("Get(%d) after Put returned other memory: the %d-byte class was not reused", n, cap(b))
		}
	}
}

func TestGetPutSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	for _, n := range []int{260, 4 << 10, 256<<10 + 100} {
		if allocs := testing.AllocsPerRun(100, func() { bufpool.Put(bufpool.Get(n)) }); allocs != 0 {
			t.Errorf("Get(%d)+Put: %v allocs per round, want 0 (Put must not box a slice header)", n, allocs)
		}
	}
}

// TestOnlyPooledCapacitiesAreKept: nothing above 4 MiB, and nothing whose
// capacity Get would never have chosen, comes back out of Get.
func TestOnlyPooledCapacitiesAreKept(t *testing.T) {
	for _, c := range []int{5 << 20, 8 << 20, 4<<20 + 1, 100, 4097, 63} {
		b := make([]byte, c)
		bufpool.Put(b)
		if again := bufpool.Get(c); base(again) == base(b) {
			t.Errorf("a foreign %d-byte buffer was kept and handed out again", c)
		}
	}
	big := bufpool.Get(5 << 20)
	if len(big) != 5<<20 {
		t.Fatalf("Get(5 MiB) returned %d bytes", len(big))
	}
	bufpool.Put(big)
	if again := bufpool.Get(5 << 20); base(again) == base(big) {
		t.Error("a 5 MiB buffer was retained")
	}
}

// TestLargeBuffersOutliveCollections: payload-sized buffers handed back are
// handed out again after collections, which empty sync.Pool — eight of a
// class at most, and 4 MiB in all.
func TestLargeBuffersOutliveCollections(t *testing.T) {
	for _, c := range []struct{ n, want int }{{32 << 10, 8}, {256<<10 + 100, 8}, {1 << 20, 4}} {
		bufpool.Forget()
		bufs := make([][]byte, 20)
		for i := range bufs {
			bufs[i] = bufpool.Get(c.n)
		}
		for _, b := range bufs {
			bufpool.Put(b)
		}
		runtime.GC()
		runtime.GC()
		back := 0
		for range bufs {
			again := bufpool.Get(c.n)
			for _, b := range bufs {
				if base(again) == base(b) {
					back++
				}
			}
		}
		if back != c.want {
			t.Errorf("Get(%d): %d of twenty buffers outlived two collections, want %d", c.n, back, c.want)
		}
	}
}

func TestPoisonOverwritesWhatPutTakesBack(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	b := bufpool.Get(1000)
	for i := range b {
		b[i] = 1
	}
	bufpool.Put(b)
	for i, v := range b[:cap(b)] {
		if v != 0xDB {
			t.Fatalf("byte %d of a released buffer reads %#x, want 0xDB", i, v)
		}
	}
}
