package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/obs"
)

func TestDigestDeterministicAndSensitive(t *testing.T) {
	cfg := tiny("FFT", 1, compress.Spec{Kind: "none"})
	r1, err := cmp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cmp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(r1) != Digest(r2) {
		t.Error("same-seed results digest differently")
	}
	other, err := cmp.Run(tiny("FFT", 2, compress.Spec{Kind: "none"}))
	if err != nil {
		t.Fatal(err)
	}
	if Digest(r1) == Digest(other) {
		t.Error("different-seed results digest identically")
	}
}

// TestResultEncodingMatchesMarshal requires the streamed encoding to
// write exactly json.Marshal(res)'s bytes, with the metrics as
// encoding/json's own map encoder writes them, and Digest to hash
// those bytes. The results: the 4x4 golden configuration fault-free and
// at BER 1e-5, the 64-tile torus, 16-tile FFT with the epoch series on,
// the 1024-tile torus cell bench/ runs as fft-torus1024, and a zero
// Result.
func TestResultEncodingMatchesMarshal(t *testing.T) {
	dbrc := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	golden := cmp.RunConfig{App: "FFT", RefsPerCore: 2000, WarmupRefs: 500, Seed: 1,
		Compression: dbrc, Heterogeneous: true}
	ber := golden
	ber.Faults = fault.Config{BER: 1e-5, VLBERScale: 4}
	torus64 := golden
	torus64.Topology, torus64.Tiles, torus64.RefsPerCore, torus64.WarmupRefs = "torus", 64, 500, 250
	series := golden
	series.SeriesInterval = 512
	scale := cmp.RunConfig{App: "FFT", RefsPerCore: 40, WarmupRefs: 10, Seed: 1,
		Topology: "torus", Tiles: 1024, Compression: dbrc, Heterogeneous: true}
	for _, c := range []struct {
		name string
		cfg  *cmp.RunConfig // nil: the zero Result
	}{
		{"zero", nil}, {"mesh4x4", &golden}, {"mesh4x4-ber", &ber}, {"torus64", &torus64},
		{"series512", &series}, {"torus1024", &scale},
	} {
		var res cmp.Result
		if c.cfg != nil {
			var err error
			if res, err = cmp.Run(*c.cfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got bytes.Buffer
		if err := writeResult(&got, res); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: streamed encoding differs from json.Marshal (%d vs %d bytes) from byte %d",
				c.name, got.Len(), len(want), firstDiff(got.Bytes(), want))
		}
		var byName map[string]obs.Metric // null, like the zero Result's nil snapshot
		if res.Metrics != nil {
			byName = make(map[string]obs.Metric, len(res.Metrics))
			for _, e := range res.Metrics {
				byName[e.Name] = e.Metric
			}
		}
		metrics, err := json.Marshal(byName)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Contains(got.Bytes(), append([]byte(`,"Metrics":`), metrics...)) {
			t.Errorf("%s: the metrics are not encoding/json's map encoding", c.name)
		}
		if sum := sha256.Sum256(want); Digest(res) != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: Digest is not the SHA-256 of json.Marshal", c.name)
		}
	}
}

// TestCachePutWritesMarshal requires a disk-cache entry to hold exactly
// json.Marshal's bytes for its envelope, and to read back unchanged.
func TestCachePutWritesMarshal(t *testing.T) {
	cfg := tiny("FFT", 1, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2})
	res, err := cmp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, res)
	got, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(entry{Version: cmp.SimVersion, Key: key, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cache entry differs from json.Marshal (%d vs %d bytes) from byte %d",
			len(got), len(want), firstDiff(got, want))
	}
	fresh, err := NewDiskCache(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := fresh.Get(key)
	if !ok || Digest(back) != Digest(res) {
		t.Fatal("the entry did not read back as the result it stored")
	}
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
