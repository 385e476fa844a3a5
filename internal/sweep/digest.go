package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"tilesim/internal/cmp"
	"tilesim/internal/obs"
)

// Digest returns the canonical result digest: SHA-256 over the
// encoding/json serialization of the Result. encoding/json sorts map
// keys and renders floats in shortest round-trip form, so two
// bit-identical Results digest identically, and a digest covers every
// Result field. The golden tests and the bench/ harness pin results by
// it; a changed digest for an unchanged configuration is a
// determinism failure. The encoding streams into the hash
// (writeResult), so a 1024-tile result's 1.4 MB of JSON is never held.
func Digest(res cmp.Result) string {
	h := sha256.New()
	if err := writeResult(h, res); err != nil {
		// Result is plain data (no channels, funcs, or cycles) and a
		// hash never fails a write; keep the signature error-free and
		// make the impossible loudly visible if a future field breaks
		// this.
		panic(fmt.Sprintf("sweep: result digest: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeResult writes to w exactly the bytes json.Marshal(res) writes.
// Every field of Result is exported and untagged, so encoding/json
// names each by its Go name, in declaration order; each goes through
// encoding/json except the metrics snapshot, which streams through
// obs's writer (DESIGN.md §10.2).
func writeResult(w io.Writer, res cmp.Result) error {
	v := reflect.ValueOf(res)
	for i := range v.NumField() {
		head := `,"`
		if i == 0 {
			head = `{"`
		}
		if _, err := io.WriteString(w, head+v.Type().Field(i).Name+`":`); err != nil {
			return err
		}
		var err error
		switch f := v.Field(i).Interface().(type) {
		case obs.Snapshot:
			err = f.WriteCompactJSON(w)
		default:
			var b []byte
			if b, err = json.Marshal(f); err == nil {
				_, err = w.Write(b)
			}
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}
