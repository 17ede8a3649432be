package rtl

import (
	"math/rand"
	"testing"
)

// TestAuditCompiledCleanRandomDesigns: the compiled schedule of a random
// design (two async ROM levels, a sync ROM, enabled registers) always
// audits clean.
func TestAuditCompiledCleanRandomDesigns(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		d := randomDesign(t, rand.New(rand.NewSource(seed)))
		if msgs := d.AuditCompiled(); len(msgs) != 0 {
			t.Fatalf("seed %d: %v", seed, msgs)
		}
	}
}

// TestAuditCompiledScheduleSensitivity corrupts the cached schedule one
// field at a time; each corruption must be detected, and the audit must go
// back to clean once the field is restored (proving the finding came from
// the corruption, not from audit state).
func TestAuditCompiledScheduleSensitivity(t *testing.T) {
	d := randomDesign(t, rand.New(rand.NewSource(5)))
	sc := d.compiledSched()
	if msgs := d.AuditCompiled(); len(msgs) != 0 {
		t.Fatalf("baseline not clean: %v", msgs)
	}
	if len(sc.segs) == 0 {
		t.Fatal("random design compiled without ROM gather segments")
	}

	cases := []struct {
		name    string
		corrupt func() (restore func())
	}{
		{"boundary-moved", func() func() {
			old := sc.segs[0].boundary
			sc.segs[0].boundary--
			return func() { sc.segs[0].boundary = old }
		}},
		{"segment-dropped", func() func() {
			old := sc.segs
			sc.segs = append([]romSeg(nil), old[:len(old)-1]...)
			return func() { sc.segs = old }
		}},
		{"segment-duplicated", func() func() {
			old := sc.segs
			sc.segs = append(append([]romSeg(nil), old...), old[0])
			return func() { sc.segs = old }
		}},
		{"segments-reordered", func() func() {
			if len(sc.segs) < 2 {
				return nil
			}
			old := sc.segs
			rev := append([]romSeg(nil), old...)
			rev[0], rev[1] = rev[1], rev[0]
			sc.segs = rev
			return func() { sc.segs = old }
		}},
		{"register-ordinal", func() func() {
			old := sc.regOrd[0][0]
			sc.regOrd[0][0]++
			return func() { sc.regOrd[0][0] = old }
		}},
		{"port-ordinal", func() func() {
			old := sc.portOrd[0][0]
			sc.portOrd[0][0]++
			return func() { sc.portOrd[0][0] = old }
		}},
		{"rom-ordinal", func() func() {
			old := sc.romOrd[0][0]
			sc.romOrd[0][0]++
			return func() { sc.romOrd[0][0] = old }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := tc.corrupt()
			if restore == nil {
				t.Skip("schedule shape not present")
			}
			msgs := d.AuditCompiled()
			if len(msgs) == 0 {
				t.Fatal("audit accepted a corrupted schedule")
			}
			t.Logf("detected: %s", msgs[0])
			restore()
			if msgs := d.AuditCompiled(); len(msgs) != 0 {
				t.Fatalf("audit still dirty after restore: %v", msgs)
			}
		})
	}
}
