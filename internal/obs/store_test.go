package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func recordN(r *Store, trace TraceID, n int) {
	for i := 0; i < n; i++ {
		r.Record(Span{Trace: trace, ID: SpanID(i + 1), Seq: uint64(i + 1), Name: "s"})
	}
}

func TestRingRetainsNewestSpans(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 4})
	recordN(r, 1, 6) // spans seq 1..6; ring keeps 3..6
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d, want 4", len(spans))
	}
	if spans[0].Seq != 3 || spans[3].Seq != 6 {
		t.Fatalf("retained window [%d..%d], want [3..6]", spans[0].Seq, spans[3].Seq)
	}
	if r.Total() != 6 {
		t.Fatalf("total %d, want 6", r.Total())
	}
}

func TestRingUnwrapped(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 8})
	recordN(r, 1, 3)
	if got := r.Spans(); len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	if st := r.Stats(); st.DroppedSpans != 0 || st.KeptSpans != 3 {
		t.Fatalf("unwrapped store dropped spans: %+v", st)
	}
}

func TestRingTraceFiltersAndSorts(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 16})
	// Interleave two traces, out of start order.
	r.Record(Span{Trace: 7, ID: 1, Seq: 5})
	r.Record(Span{Trace: 9, ID: 2, Seq: 1})
	r.Record(Span{Trace: 7, ID: 3, Seq: 2})
	tr := r.Trace(7)
	if len(tr) != 2 || tr[0].Seq != 2 || tr[1].Seq != 5 {
		t.Fatalf("trace filter/sort wrong: %+v", tr)
	}
}

func TestRingDefaultSize(t *testing.T) {
	r := NewStore(StoreOptions{})
	if len(r.buf) != DefaultMaxSpans {
		t.Fatalf("default capacity %d, want %d", len(r.buf), DefaultMaxSpans)
	}
}

func TestRingSnapshotSinceCursorThreading(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 8})
	recordN(r, 1, 3)
	spans, dropped, next := r.SnapshotSince(0)
	if len(spans) != 3 || dropped != 0 || next != 3 {
		t.Fatalf("first poll: spans=%d dropped=%d next=%d, want 3/0/3", len(spans), dropped, next)
	}
	// Nothing new: empty incremental poll.
	spans, dropped, next = r.SnapshotSince(next)
	if len(spans) != 0 || dropped != 0 || next != 3 {
		t.Fatalf("idle poll: spans=%d dropped=%d next=%d, want 0/0/3", len(spans), dropped, next)
	}
	// Two more spans: only the new ones come back.
	r.Record(Span{Trace: 1, ID: 10, Seq: 10})
	r.Record(Span{Trace: 1, ID: 11, Seq: 11})
	spans, dropped, next = r.SnapshotSince(next)
	if len(spans) != 2 || dropped != 0 || next != 5 {
		t.Fatalf("incremental poll: spans=%d dropped=%d next=%d, want 2/0/5", len(spans), dropped, next)
	}
	if spans[0].Seq != 10 || spans[1].Seq != 11 {
		t.Fatalf("incremental poll returned wrong spans: %+v", spans)
	}
}

func TestRingSnapshotSinceReportsEvictions(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 4})
	recordN(r, 1, 2)
	_, _, next := r.SnapshotSince(0)
	// Overrun the buffer: 6 more spans into a 4-slot ring evicts the
	// two we already saw plus two we never will.
	recordN(r, 2, 6)
	spans, dropped, next2 := r.SnapshotSince(next)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (spans recorded after the cursor but evicted)", dropped)
	}
	if len(spans) != 4 || next2 != 8 {
		t.Fatalf("spans=%d next=%d, want 4/8", len(spans), next2)
	}
	if spans[0].Seq != 3 || spans[3].Seq != 6 {
		t.Fatalf("retained window [%d..%d], want [3..6]", spans[0].Seq, spans[3].Seq)
	}
	if got := r.Stats().DroppedSpans; got != 4 {
		t.Fatalf("lifetime Dropped = %d, want 4 (total 8 - retained 4)", got)
	}
}

func TestRingSnapshotSinceStaleCursorRestarts(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 8})
	recordN(r, 2, 2)
	// A cursor from another store's lifetime (5) exceeds this store's
	// total (2): the poll must restart from zero instead of waiting
	// forever.
	spans, dropped, next2 := r.SnapshotSince(5)
	if len(spans) != 2 || dropped != 0 || next2 != 2 {
		t.Fatalf("stale-cursor poll: spans=%d dropped=%d next=%d, want 2/0/2", len(spans), dropped, next2)
	}
}

func TestRingWriteJSONReportsDropped(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 4})
	recordN(r, 3, 6)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var exp Export
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if exp.DroppedSpans != 2 {
		t.Fatalf("export dropped = %d, want 2", exp.DroppedSpans)
	}
}

func TestRingWriteJSON(t *testing.T) {
	r := NewStore(StoreOptions{MaxSpans: 4})
	recordN(r, 3, 6)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var exp Export
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if exp.TotalSpans != 6 || exp.Retained != 4 || len(exp.Spans) != 4 {
		t.Fatalf("export total=%d retained=%d spans=%d", exp.TotalSpans, exp.Retained, len(exp.Spans))
	}
}

// The export is one snapshot: written while 8 goroutines record, every
// document still satisfies total = retained + dropped + pending, in
// both modes.
func TestStoreExportIsOneSnapshot(t *testing.T) {
	for _, tail := range []bool{false, true} {
		s := NewStore(StoreOptions{MaxSpans: 64, Tail: tail, Baseline: 2})
		tr := NewTracer(nil)
		tr.SetRecorder(s)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					root := tr.StartRoot(KindClient, "invoke")
					root.Child("send").End()
					root.End()
				}
			}()
		}
		for i := 0; i < 200 || s.Total() == 0; i++ {
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var exp Export
			if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
				t.Fatal(err)
			}
			if exp.Retained != len(exp.Spans) ||
				exp.TotalSpans != uint64(exp.Retained)+exp.DroppedSpans+uint64(exp.PendingSpans) {
				t.Fatalf("tail=%v: export disagrees with itself: total=%d retained=%d dropped=%d pending=%d spans=%d",
					tail, exp.TotalSpans, exp.Retained, exp.DroppedSpans, exp.PendingSpans, len(exp.Spans))
			}
		}
		close(stop)
		wg.Wait()
	}
}
