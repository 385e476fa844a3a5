package sweep

import (
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
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
