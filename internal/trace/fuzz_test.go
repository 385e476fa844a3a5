package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzDecode feeds the parser arbitrary text. For every input Decode
// accepts, CheckReplay must return rather than panic, and encoding the
// trace and decoding it again must reproduce every core's operations
// exactly. The checked-in corpus (testdata/fuzz/FuzzDecode) holds two
// small tracegen captures and the short inputs of TestDecodeErrors;
// its over-long line, a megabyte, is added here instead. Run the
// fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s ./internal/trace
func FuzzDecode(f *testing.F) {
	f.Add([]byte("0 B\n0 L " + strings.Repeat("4", 1<<20) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data), 0)
		if err != nil {
			return
		}
		_ = tr.CheckReplay(0)
		_ = tr.CheckReplay(1)
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		cores := tr.Summarize().Cores
		back, err := Decode(&buf, cores)
		if err != nil {
			t.Fatalf("decoding the re-encoded trace: %v\n%s", err, buf.Bytes())
		}
		if got := back.Summarize().Cores; got != cores {
			t.Fatalf("re-decoded %d cores, want %d", got, cores)
		}
		for core := range tr.ops {
			if !slices.Equal(back.ops[core], tr.ops[core]) {
				t.Fatalf("core %d: re-decoded %v, want %v", core, back.ops[core], tr.ops[core])
			}
		}
	})
}
