package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"dmdc/internal/isa"
)

// streamDigests pins, per profile, a SHA-256 over a committed-path stream
// with wrong-path episodes spliced in (see hashStream). Any change to the
// generator's draw order, thresholds or state updates moves a digest, so
// performance work on the generator must leave every entry as it is.
var streamDigests = map[string]string{
	"gzip":     "8cf32fbc09da9e2f3370cd532d1547897ca137a553b131512788d9063006c0b4",
	"vpr":      "498903c9ec9349385f6100cfb54542aaf8419e7adf02218cfd8a5ad70169821b",
	"gcc":      "7a9147363c61e0461a764f192526e23f78c0d4bf4b9a3c2c8530e0276ef03595",
	"mcf":      "65afe8816329a148a430a63d0ed2f00a2055f2df891e5c5973648f699dc19161",
	"crafty":   "bf07feb4b2a348843ebd6048762c1325c0784c1be95f18f4f47fb06193e4d4e1",
	"parser":   "111769c1a108c35ba9357b898324fb031c7982311bed0d5eef743afa7aa2e75e",
	"eon":      "a34705ac752d2fdba7e067eff15a7681512bf73fdcaa79ef9686408c7947d4b6",
	"perlbmk":  "b0449c888d3fb2eda48624c3b3133183b12f2cda634bc50986433892b84c7f80",
	"gap":      "52507a4ac857b7cf6ddb1febfd13a9417fecf7ffb779dbc593953b9533118fb3",
	"vortex":   "f9d68394453ccc535b1b6c9e86d497e63e5101b5e488ac1f2cadf90f6916a49a",
	"bzip2":    "c48dbcf2d8544e1ce2785fd9355c55875b849671ac7ab285f2810d68740bfe10",
	"twolf":    "6489c00d25f77886ae63e681b9a4c23699710ed77a80e587a7b433ea2d03494c",
	"wupwise":  "da1eed33ac7036590b6c3c53aad2244d82141a1b00a394e434cbb288566cefb3",
	"swim":     "21ff048e6467c91c11cbb9d02648d0c9a70da773d5eba22114bc635b6eab7629",
	"mgrid":    "47f6633015b9565a7b41f22078eff26d750f5239fac15b188f8c51ac7e9c188f",
	"applu":    "5852eacab133efc77277b6b22110133131fd48d00aa41446988a216ec424c47f",
	"mesa":     "856fc090deb864f6ab1aed5555bb41adebf113046038227d9375e765df304c91",
	"galgel":   "eedc0c92a10e7b959f3c8e1a1be9f3bb96760e344d408d116ca87181207cbf0c",
	"art":      "d8b8175bf4c333567e90689898c63599d44f8c5148797cc2a6d1b373820949e6",
	"equake":   "fcf6fa236bae4b6bad9e1d4be0f46f12beb98a513a1ac700cdd325007aa454af",
	"facerec":  "770536d4592f046ec9be8e912404d9f1cb13523e40678955000a8458ceaf89d5",
	"ammp":     "5699878d57b3efd85ff11071b1146a34c5ee19539e78b3f97124ba216cb2ae7b",
	"lucas":    "45ec2b48eb1708e394980ee590ba6e25c12fffaecd8d58b813407116c25baf60",
	"fma3d":    "6fd6bc18ca229aef18ea3b10eb48db7544ec6c5ed093bcdea50ccd500ee42e8f",
	"sixtrack": "5a44935abd1a44d1e25851ef624d09f632e807d33f6c32364682864d924e1250",
	"apsi":     "cab5b1f4fe80bd62d57f83caad2a220eae9b3ea5dbd401a88e57ec6dd776b22f",
}

// hashInst folds every field of one instruction into h.
func hashInst(h hash.Hash, in *isa.Inst) {
	var b [48]byte
	binary.LittleEndian.PutUint64(b[0:], in.Seq)
	binary.LittleEndian.PutUint64(b[8:], in.PC)
	b[16] = byte(in.Op)
	binary.LittleEndian.PutUint16(b[17:], uint16(in.Dest))
	binary.LittleEndian.PutUint16(b[19:], uint16(in.Src1))
	binary.LittleEndian.PutUint16(b[21:], uint16(in.Src2))
	binary.LittleEndian.PutUint64(b[23:], in.Addr)
	b[31] = in.Size
	if in.Taken {
		b[32] = 1
	}
	binary.LittleEndian.PutUint64(b[33:], in.Target)
	h.Write(b[:41])
}

// hashStream generates n committed-path instructions of p, alternating
// NextBatch runs and single Next calls, and follows a wrong path of 40
// instructions after every fifth branch — with the reused stream when
// reuse is set, a fresh one otherwise.
func hashStream(p Profile, n int, reuse bool) string {
	g := NewGenerator(p)
	if reuse {
		g.EnableWrongPathReuse()
	}
	return hashPath(g, g, n)
}

// committedPath is what hashPath reads the committed path from: a
// generator, or a TapeReader replaying through one.
type committedPath interface {
	Next() isa.Inst
	NextBatch(dst []isa.Inst) int
}

// hashPath is hashStream over any committed-path source; the wrong paths
// come from g, the generator behind it.
func hashPath(src committedPath, g *Generator, n int) string {
	h := sha256.New()
	var buf [16]isa.Inst
	branches := 0
	for done := 0; done < n; {
		var batch []isa.Inst
		if done%3 == 0 {
			buf[0] = src.Next()
			batch = buf[:1]
		} else {
			batch = buf[:src.NextBatch(buf[:])]
		}
		for i := range batch {
			in := &batch[i]
			hashInst(h, in)
			done++
			if in.Op != isa.OpBranch {
				continue
			}
			branches++
			if branches%5 != 0 {
				continue
			}
			ws := g.WrongPath(in.PC, !in.Taken, uint64(branches))
			for j := 0; j < 40; j++ {
				w := ws.Next()
				hashInst(h, &w)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamDigests pins every profile's instruction stream, wrong paths
// included; both wrong-path allocation modes must produce it.
func TestStreamDigests(t *testing.T) {
	for _, p := range Profiles() {
		for _, reuse := range []bool{false, true} {
			if got, want := hashStream(p, 40000, reuse), streamDigests[p.Name]; got != want {
				t.Errorf("%s (reuse %v): stream digest %s, want %s", p.Name, reuse, got, want)
			}
		}
	}
}

// BenchmarkNextBatch measures committed-path generation; one op is one
// instruction.
func BenchmarkNextBatch(b *testing.B) {
	p, _ := ByName("gcc")
	g := NewGenerator(p)
	var buf [64]isa.Inst
	b.ResetTimer()
	for n := 0; n < b.N; {
		n += g.NextBatch(buf[:])
	}
}

// BenchmarkWrongPath measures wrong-path generation: a reseed per episode
// plus 32 instructions; one op is one instruction.
func BenchmarkWrongPath(b *testing.B) {
	p, _ := ByName("gcc")
	g := NewGenerator(p)
	g.EnableWrongPathReuse()
	var br isa.Inst
	for br = g.Next(); br.Op != isa.OpBranch; br = g.Next() {
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += 32 {
		ws := g.WrongPath(br.PC, !br.Taken, uint64(n))
		for j := 0; j < 32; j++ {
			ws.Next()
		}
	}
}
