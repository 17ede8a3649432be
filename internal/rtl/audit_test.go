package rtl

import (
	"math/rand"
	"testing"

	"rijndaelip/internal/lanesim"
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
	lay := d.compiledSched().layout
	if msgs := d.AuditCompiled(); len(msgs) != 0 {
		t.Fatalf("baseline not clean: %v", msgs)
	}
	if len(lay.Segs) == 0 {
		t.Fatal("random design compiled without ROM gather segments")
	}

	cases := []struct {
		name    string
		corrupt func() (restore func())
	}{
		{"boundary-moved", func() func() {
			old := lay.Segs[0].Stop
			lay.Segs[0].Stop--
			return func() { lay.Segs[0].Stop = old }
		}},
		{"resume-moved", func() func() {
			old := lay.Segs[0].Resume
			lay.Segs[0].Resume++
			return func() { lay.Segs[0].Resume = old }
		}},
		{"segment-dropped", func() func() {
			old := lay.Segs
			lay.Segs = append([]lanesim.Seg(nil), old[:len(old)-1]...)
			return func() { lay.Segs = old }
		}},
		{"segment-duplicated", func() func() {
			old := lay.Segs
			lay.Segs = append(append([]lanesim.Seg(nil), old...), old[0])
			return func() { lay.Segs = old }
		}},
		{"segments-reordered", func() func() {
			if len(lay.Segs) < 2 {
				return nil
			}
			old := lay.Segs
			rev := append([]lanesim.Seg(nil), old...)
			rev[0], rev[1] = rev[1], rev[0]
			lay.Segs = rev
			return func() { lay.Segs = old }
		}},
		{"register-ordinal", func() func() {
			old := lay.Present[0]
			lay.Present[0]++
			return func() { lay.Present[0] = old }
		}},
		{"register-next", func() func() {
			old := lay.Next[0]
			lay.Next[0] ^= 1
			return func() { lay.Next[0] = old }
		}},
		{"register-enable", func() func() {
			old := lay.Groups[0].En
			lay.Groups[0].En ^= 1
			return func() { lay.Groups[0].En = old }
		}},
		{"port-ordinal", func() func() {
			at := lay.Inputs["din"]
			old := at[0]
			at[0]++
			return func() { at[0] = old }
		}},
		{"rom-ordinal", func() func() {
			old := lay.ROMs[0].Out[0]
			lay.ROMs[0].Out[0]++
			return func() { lay.ROMs[0].Out[0] = old }
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
