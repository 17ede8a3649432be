package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"rijndaelip/internal/lanesim"
)

// This file binds generated straight-line kernels to compiled tapes, the
// compiled-simulation technique of ESSENT (Beamer & Donofrio, DAC 2020).
// cmd/tapegen, run by go generate, emits the tape of the shipped Encrypt
// netlist (the Encrypt core, ROMAsync, mapped with techmap.Options{}) as
// one Go function per sweep range of its layout's gather plan
// (kernelgen.go). Each function works over the value array as a
// fixed-size array pointer, so every index is a constant and no bounds
// check survives, and each instruction is folded into a constant word
// expression of its operands.
//
// A kernel is bound to a netlist only when its fingerprint equals the
// fingerprint of the netlist's tape and layout, so every other netlist
// (other variants and ROM styles, hardened copies, random fuzz designs)
// keeps the tape, the single general evaluator. The lane machine around
// the sweep is unchanged: the quiescent skip, the EDAC gathers and
// resume-at-ROM stay in lanesim.Machine.
//
// The chain that makes a kernel trustworthy: the static audit proves the
// tape faithful to the netlist; the audit also checks that a bound
// kernel's fingerprint is the audited tape's and its functions sit on the
// layout's sweep ranges; the drift test regenerates the committed file and
// byte-compares; and the kernel differential fuzz checks the generator's
// translation against the tape.

//go:generate go run rijndaelip/cmd/tapegen

// kernel is a generated straight-line evaluator of one tape.
type kernel struct {
	name        string
	fingerprint string      // tapeFingerprint of the tape and layout it was generated from
	segs        []kernelSeg // one per sweep range, in sweep order
}

// kernelSeg evaluates tape positions [from, to) into the value array.
type kernelSeg struct {
	from, to int
	fn       func(vals []uint64)
}

// kernels holds every generated kernel by fingerprint. Generated files
// register theirs at start-up.
var kernels = map[string]*kernel{}

// kernelTape is the lanesim.Tape of a simulator bound to a kernel: a range
// that is exactly one of the kernel's segments runs that segment's
// function, any other range runs the tape.
type kernelTape struct {
	k    *kernel
	tape *tape
}

// EvalRange evaluates tape positions [from, to).
func (kt *kernelTape) EvalRange(from, to int, src, vals []uint64) {
	for i := range kt.k.segs {
		if sg := &kt.k.segs[i]; sg.from == from && sg.to == to {
			sg.fn(vals)
			return
		}
	}
	kt.tape.EvalRange(from, to, src, vals)
}

// sweepRanges returns the non-empty ranges a dirty Eval sweeps: from the
// start of the tape or a ROM's Resume up to the next ROM's Stop or the end.
func sweepRanges(lay *lanesim.Layout) [][2]int {
	var out [][2]int
	pos := 0
	for _, seg := range lay.Segs {
		if pos < seg.Stop {
			out = append(out, [2]int{pos, seg.Stop})
		}
		pos = seg.Resume
	}
	if pos < lay.End {
		out = append(out, [2]int{pos, lay.End})
	}
	return out
}

// tapeFingerprint hashes everything a kernel is generated from: the size
// of the value array, the gather plan and every instruction and truth
// table of the tape.
func tapeFingerprint(t *tape, lay *lanesim.Layout) string {
	le := binary.LittleEndian
	buf := make([]byte, 0, 40+24*len(lay.Segs)+56*len(t.instrs)+8*len(t.tables))
	buf = le.AppendUint64(buf, uint64(lay.NumVals))
	buf = le.AppendUint64(buf, uint64(lay.End))
	buf = le.AppendUint64(buf, uint64(len(lay.Segs)))
	buf = le.AppendUint64(buf, uint64(len(t.instrs)))
	buf = le.AppendUint64(buf, uint64(len(t.tables)))
	for _, seg := range lay.Segs {
		buf = le.AppendUint64(buf, uint64(seg.ROM))
		buf = le.AppendUint64(buf, uint64(seg.Stop))
		buf = le.AppendUint64(buf, uint64(seg.Resume))
	}
	for i := range t.instrs {
		ins := &t.instrs[i]
		buf = append(buf, ins.op)
		buf = le.AppendUint32(buf, uint32(ins.out))
		for _, n := range ins.in {
			buf = le.AppendUint32(buf, uint32(n))
		}
		buf = le.AppendUint64(buf, ins.ia)
		buf = le.AppendUint64(buf, ins.ib)
		buf = le.AppendUint64(buf, ins.io)
		buf = le.AppendUint32(buf, uint32(ins.tbl))
	}
	for _, w := range t.tables {
		buf = le.AppendUint64(buf, w)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
