package obs

import (
	"encoding/json"
	"testing"
)

// TestEventLogRingWraparound pins the ring contract the dashboard depends
// on: once the ring wraps, Len stays at capacity, Events() is the *last*
// cap events oldest-first, Dropped counts the overwritten ones, and the
// per-kind Count totals keep including events the ring no longer holds.
func TestEventLogRingWraparound(t *testing.T) {
	const cap = 8
	const total = 37
	l := NewEventLog(cap)
	for i := 0; i < total; i++ {
		kind := EvSquash
		if i%3 == 0 {
			kind = EvReuseHit
		}
		l.Append(Event{Cycle: uint64(i), Kind: kind, Seq: uint64(i)})
	}
	if got := l.Len(); got != cap {
		t.Fatalf("Len = %d, want %d", got, cap)
	}
	if got := l.Dropped(); got != total-cap {
		t.Fatalf("Dropped = %d, want %d", got, total-cap)
	}
	evs := l.Events()
	if len(evs) != cap {
		t.Fatalf("Events() len = %d, want %d", len(evs), cap)
	}
	for i, e := range evs {
		want := uint64(total - cap + i)
		if e.Seq != want || e.Cycle != want {
			t.Fatalf("Events()[%d] = seq %d cycle %d, want %d (oldest-first after wrap)", i, e.Seq, e.Cycle, want)
		}
	}
	// Lifetime counts cover all appends, not just the surviving window.
	wantReuse := uint64(0)
	for i := 0; i < total; i++ {
		if i%3 == 0 {
			wantReuse++
		}
	}
	if got := l.Count(EvReuseHit); got != wantReuse {
		t.Fatalf("Count(EvReuseHit) = %d, want %d", got, wantReuse)
	}
	if got := l.Count(EvSquash); got != total-wantReuse {
		t.Fatalf("Count(EvSquash) = %d, want %d", got, total-wantReuse)
	}
}

// TestEventLogJSON checks the wire form: window events oldest-first with
// hex PCs, lifetime counts, and the dropped total; and that a nil log
// marshals as an empty window rather than JSON null.
func TestEventLogJSON(t *testing.T) {
	l := NewEventLog(2)
	l.Append(Event{Cycle: 1, Kind: EvSquash, PC: 0xbeef, Seq: 1, A: 64, B: 1})
	l.Append(Event{Cycle: 2, Kind: EvVPMispredict, PC: 0x10, Seq: 2})
	l.Append(Event{Cycle: 3, Kind: EvFault, PC: 0x14, Seq: 3, Note: "regs[3]"})
	j := l.JSON()
	if j.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", j.Dropped)
	}
	if len(j.Events) != 2 || j.Events[0].Kind != "vp_mispredict" || j.Events[1].Kind != "fault" {
		t.Fatalf("window = %+v, want [vp_mispredict fault]", j.Events)
	}
	if j.Events[0].PC != "0x00000010" {
		t.Fatalf("PC = %q, want zero-padded hex", j.Events[0].PC)
	}
	if j.Events[1].Note != "regs[3]" {
		t.Fatalf("Note = %q", j.Events[1].Note)
	}
	if j.Counts["squash"] != 1 || j.Counts["vp_mispredict"] != 1 || j.Counts["fault"] != 1 {
		t.Fatalf("Counts = %v, want lifetime totals incl. overwritten squash", j.Counts)
	}
	var nilLog *EventLog
	b, err := json.Marshal(nilLog.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"events":[]}` {
		t.Fatalf("nil log JSON = %s", b)
	}
}

// TestSeriesJSON checks the positional wire form: explicit leading
// "cycle" column and one row per sample.
func TestSeriesJSON(t *testing.T) {
	s := NewSeries([]string{"ipc", "rb_hits"})
	s.Append(100, []float64{1.5, 3})
	s.Append(200, []float64{1.25, 7})
	j := s.JSON()
	if len(j.Fields) != 3 || j.Fields[0] != "cycle" || j.Fields[2] != "rb_hits" {
		t.Fatalf("Fields = %v", j.Fields)
	}
	if len(j.Rows) != 2 || j.Rows[1][0] != 200 || j.Rows[1][1] != 1.25 || j.Rows[1][2] != 7 {
		t.Fatalf("Rows = %v", j.Rows)
	}
	var nilSeries *Series
	b, err := json.Marshal(nilSeries.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"fields":[],"rows":[]}` {
		t.Fatalf("nil series JSON = %s", b)
	}
}
