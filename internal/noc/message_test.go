package noc

import "testing"

func TestSizesMatchSection43(t *testing.T) {
	// Requests and coherence commands: 11 bytes (3 control + 8 address).
	for _, typ := range []Type{GetS, GetX, Upgrade, Inv, FwdGetS, FwdGetX} {
		m := &Message{Type: typ}
		if got := m.UncompressedSize(); got != 11 {
			t.Errorf("%v: size %d, want 11", typ, got)
		}
	}
	// Coherence replies and replacement hints: 3 bytes.
	for _, typ := range []Type{InvAck, OwnAck, ReplacementHint} {
		m := &Message{Type: typ}
		if got := m.UncompressedSize(); got != 3 {
			t.Errorf("%v: size %d, want 3", typ, got)
		}
	}
	// Data-carrying messages: 67 bytes.
	for _, typ := range []Type{Data, DataExclusive, WriteBack} {
		m := &Message{Type: typ, DataBytes: LineBytes}
		if got := m.UncompressedSize(); got != 67 {
			t.Errorf("%v: size %d, want 67", typ, got)
		}
	}
	// Revision without data is a 3-byte control message.
	m := &Message{Type: Revision}
	if got := m.UncompressedSize(); got != 3 {
		t.Errorf("revision w/o data: size %d, want 3", got)
	}
}

func TestCriticalityMatchesSection42(t *testing.T) {
	critical := []Type{GetS, GetX, Upgrade, Data, DataExclusive, AckNoData, Inv, FwdGetS, FwdGetX, InvAck, OwnAck}
	nonCritical := []Type{Revision, WriteBack, ReplacementHint, WBAck}
	for _, typ := range critical {
		if !Critical(typ) {
			t.Errorf("%v should be critical", typ)
		}
	}
	for _, typ := range nonCritical {
		if Critical(typ) {
			t.Errorf("%v should be non-critical", typ)
		}
	}
}

func TestCompressibleOnlyRequestsAndCommands(t *testing.T) {
	want := map[Type]bool{
		GetS: true, GetX: true, Upgrade: true,
		Inv: true, FwdGetS: true, FwdGetX: true,
	}
	for typ := Type(0); typ < numTypes; typ++ {
		if got := Compressible(typ); got != want[typ] {
			t.Errorf("Compressible(%v) = %v", typ, got)
		}
		if Compressible(typ) && !HasAddr(typ) {
			t.Errorf("%v compressible but carries no address", typ)
		}
	}
}

func TestClassOfCoversAllTypes(t *testing.T) {
	counts := map[Class]int{}
	for typ := Type(0); typ < numTypes; typ++ {
		counts[ClassOf(typ)]++
	}
	if len(counts) != int(NumClasses) {
		t.Fatalf("classes used: %v, want all %d", counts, NumClasses)
	}
	if ClassOf(GetS) != ClassRequest || ClassOf(Data) != ClassResponse ||
		ClassOf(Inv) != ClassCoherenceCommand || ClassOf(InvAck) != ClassCoherenceReply ||
		ClassOf(WriteBack) != ClassReplacement {
		t.Error("class assignments do not match Figure 4")
	}
}

func TestFlits(t *testing.T) {
	cases := []struct{ size, width, want int }{
		{11, 75, 1}, // short message, baseline link
		{67, 75, 1}, // data reply, baseline link
		{67, 34, 2}, // data reply, heterogeneous B channel
		{11, 34, 1},
		{4, 4, 1}, // compressed request, VL channel
		{5, 4, 2},
		{3, 5, 1},
	}
	for _, c := range cases {
		if got := Flits(c.size, c.width); got != FlitCount(c.want) {
			t.Errorf("Flits(%d, %d) = %d, want %d", c.size, c.width, got, c.want)
		}
	}
}

func TestFlitsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Flits(0, 4) },
		func() { Flits(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Flits args accepted")
				}
			}()
			f()
		}()
	}
}

func TestValidate(t *testing.T) {
	good := &Message{Type: GetS, Src: 0, Dst: 3, SizeBytes: 11}
	if err := good.Validate(16); err != nil {
		t.Errorf("valid message rejected: %v", err)
	}
	bad := []*Message{
		{Type: GetS, Src: 0, Dst: 16, SizeBytes: 11},               // dst out of range
		{Type: GetS, Src: 2, Dst: 2, SizeBytes: 11},                // self
		{Type: GetS, Src: 0, Dst: 1, SizeBytes: 0},                 // no wire size
		{Type: GetS, Src: 0, Dst: 1, SizeBytes: 11, DataBytes: 64}, // request with data
		{Type: Data, Src: 0, Dst: 1, SizeBytes: 67, DataBytes: 17}, // partial line
	}
	for i, m := range bad {
		if err := m.Validate(16); err == nil {
			t.Errorf("bad message %d accepted", i)
		}
	}
}

func TestStringNames(t *testing.T) {
	if GetS.String() != "GetS" || WriteBack.String() != "WriteBack" {
		t.Error("type names wrong")
	}
	if Type(99).String() != "Type(99)" {
		t.Error("unknown type name wrong")
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d unnamed", c)
		}
	}
}

func TestPartialReplyShape(t *testing.T) {
	m := &Message{Type: PartialReply}
	// Control (3) + critical word (8): same wire cost as a request.
	if got := m.UncompressedSize(); got != 11 {
		t.Fatalf("partial reply size %d, want 11", got)
	}
	if !Critical(PartialReply) {
		t.Fatal("partial reply must be critical")
	}
	if Compressible(PartialReply) {
		t.Fatal("partial reply carries a word, not an address: not compressible")
	}
	if ClassOf(PartialReply) != ClassResponse {
		t.Fatal("partial reply is a response")
	}
}

func TestRelaxedFlagDemotesInstance(t *testing.T) {
	// Criticality is a type property; Relaxed is the per-instance
	// demotion used by Reply Partitioning. The manager combines them.
	m := &Message{Type: Data, DataBytes: LineBytes, Relaxed: true}
	if !Critical(m.Type) {
		t.Fatal("Data type itself is critical")
	}
	if !m.Relaxed {
		t.Fatal("instance should be relaxed")
	}
}

func TestVLAndPWExclusive(t *testing.T) {
	m := &Message{Type: GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true, PW: true}
	// Validate does not police plane flags (the mesh does), but both
	// set is meaningless; document the invariant here.
	if !(m.VL && m.PW) {
		t.Skip()
	}
}
