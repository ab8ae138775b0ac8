package wire

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// fnvChecksum is the reference Checksum: hash/fnv's FNV-1a over each
// entry's 8 little-endian bytes, one Write per entry.
func fnvChecksum(m []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range m {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// entryBytes renders map entries as the little-endian int64 stream
// FuzzChecksum decodes.
func entryBytes(m []int) []byte {
	b := make([]byte, 0, 8*len(m))
	for _, v := range m {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// FuzzChecksum is the differential pin of the folded Checksum kernel:
// the fuzz bytes, read as little-endian int64 entries (a trailing
// partial entry is dropped), must hash exactly as hash/fnv hashes them.
// The seeds sit on both sides of the folded case's 2^16 bound and of
// every other byte-length boundary, and include negative entries.
func FuzzChecksum(f *testing.F) {
	bounds := []int{
		0, 255, 256, 65535, 65536, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32,
		int(MaxValue), -1, math.MinInt64, math.MaxInt64,
	}
	for _, v := range bounds {
		f.Add(entryBytes([]int{v}))
	}
	f.Add(entryBytes(bounds))
	f.Add(entryBytes(identity(192 * 192)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		m := make([]int, len(raw)/8)
		for i := range m {
			m[i] = int(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if got, want := Checksum(m), fnvChecksum(m); got != want {
			t.Fatalf("Checksum = %016x, hash/fnv = %016x over %d entries", got, want, len(m))
		}
	})
}

// BenchmarkChecksum times Checksum against the hash/fnv reference on
// two map shapes: the serve-d2 guest (192², entries below the
// 49,152-node host) and the B2 guest (432², entries below the
// 279,936-node host), each a monotone near-identity map spread over
// the host's range as an embedding is. Every serve entry takes the
// folded case; B2 entries need 3 bytes and take the 8-byte loop.
func BenchmarkChecksum(b *testing.B) {
	for _, shape := range []struct {
		name        string
		guest, host int
	}{
		{"serve", 192 * 192, 49152},
		{"b2", 432 * 432, 279936},
	} {
		m := make([]int, shape.guest)
		for i := range m {
			m[i] = i * shape.host / shape.guest
		}
		want := fnvChecksum(m)
		for _, impl := range []struct {
			name string
			fn   func([]int) uint64
		}{
			{"folded", Checksum},
			{"fnv", fnvChecksum},
		} {
			b.Run(shape.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * len(m)))
				for i := 0; i < b.N; i++ {
					if impl.fn(m) != want {
						b.Fatal("checksum mismatch")
					}
				}
			})
		}
	}
}
