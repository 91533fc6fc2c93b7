package reputation

import (
	"reflect"
	"testing"
)

// graphFromFuzzBytes decodes an arbitrary byte string into a trust graph:
// the first byte picks n (1..32), then each 3-byte chunk is one mutation
// (from, to, weight). Self-loops, duplicate edges, negative and zero
// weights, and deletions are all representable — exactly the edge cases CSR
// construction must round-trip.
func graphFromFuzzBytes(data []byte) *TrustGraph {
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%32
	}
	g, err := NewTrustGraph(n)
	if err != nil {
		panic(err) // n >= 1 by construction
	}
	for i := 1; i+2 < len(data); i += 3 {
		from := int(data[i]) % n
		to := int(data[i+1]) % n
		wb := data[i+2]
		w := float64(wb)/16 - 2 // range [-2, 13.9]: negatives, zeros, dupes
		if wb%5 == 0 {
			// Deletion / overwrite path.
			_ = g.SetTrust(from, to, w)
		} else {
			// Accumulation path (ignores w <= 0).
			_ = g.AddTrust(from, to, w)
		}
	}
	return g
}

// FuzzCSRFromTrustGraph fuzzes CSR construction: whatever graph the bytes
// decode to — empty, self-loops, all-zero rows, duplicate edges — the CSR
// must round-trip bit-identically to the dense normalized matrix and keep
// both layouts sorted, and the CSR of its edge-log twin must hold the same
// bits and survive a same-pattern Refresh unchanged.
func FuzzCSRFromTrustGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 200})                      // single peer, self-loop attempt
	f.Add([]byte{5, 1, 2, 100, 1, 2, 100, 2, 1, 90}) // duplicate edges
	f.Add([]byte{8, 3, 4, 0, 4, 3, 5, 0, 7, 255})    // zero and negative weights
	f.Add([]byte{16, 0, 1, 33, 1, 0, 33, 2, 2, 99, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzBytes(data)
		c := NewCSR(g)
		if got, want := c.Dense(), expectedDense(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("dense round-trip mismatch for %v:\n got %v\nwant %v", data, got, want)
		}
		n := g.Len()
		nnz := 0
		for i := 0; i < n; i++ {
			if c.rowPtr[i] > c.rowPtr[i+1] {
				t.Fatalf("rowPtr not monotone at %d", i)
			}
			deg := c.rowPtr[i+1] - c.rowPtr[i]
			nnz += deg
			if (deg == 0) != (g.OutDegree(i) == 0) {
				t.Fatalf("row %d degree %d disagrees with graph %d", i, deg, g.OutDegree(i))
			}
			for k := c.rowPtr[i] + 1; k < c.rowPtr[i+1]; k++ {
				if c.colIdx[k-1] >= c.colIdx[k] {
					t.Fatalf("row %d not strictly ascending", i)
				}
			}
		}
		if nnz != c.NNZ() {
			t.Fatalf("NNZ %d vs rowPtr total %d", c.NNZ(), nnz)
		}
		// Self-loops must never be stored.
		for i := 0; i < n; i++ {
			for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
				if int(c.colIdx[k]) == i {
					t.Fatalf("self-loop stored at row %d", i)
				}
			}
		}
		// The map-backed store has no refresh path of its own; its edge-log
		// twin does, and a same-pattern refresh there must keep the matrix
		// bit-identical.
		lg := logGraphOf(g)
		lc := NewCSR(lg)
		before := c.Dense()
		if !reflect.DeepEqual(before, lc.Dense()) {
			t.Fatal("edge-log twin builds a different matrix")
		}
		if !lc.Refresh(lg) || !lc.LastRefresh().DirtyOnly {
			t.Fatal("refresh of the same graph should take the fast path")
		}
		if !reflect.DeepEqual(before, lc.Dense()) {
			t.Fatal("fast-path refresh changed values")
		}
	})
}
