package ctrlrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic and never allocate beyond MaxFrame.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame and near-miss corruptions.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	r := Report{AgentID: 1, Seq: 2}
	if _, err := WriteFrame(bw, TypeReport, &r); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, TypeAck})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, TypeTick})
	corrupt := append([]byte(nil), valid...)
	if len(corrupt) > 6 {
		corrupt[5] ^= 0xFF
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, n, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("payload %d exceeds MaxFrame", len(payload))
		}
		if n != len(payload)+5 {
			t.Fatalf("byte accounting wrong: n=%d payload=%d", n, len(payload))
		}
		// Decoding into the matching struct must not panic either.
		switch typ {
		case TypeReport:
			var r Report
			_ = Decode(payload, &r)
		case TypeTick:
			var tk TickMsg
			_ = Decode(payload, &tk)
		case TypeParams:
			var p TickResult
			_ = Decode(payload, &p)
		}
	})
}

// FuzzDecode hammers the payload decoder directly (below the framing
// layer) with arbitrary bytes against every message type: it must never
// panic, and whatever message a payload decodes to must come back bit for
// bit from a round trip through WriteFrame, ReadFrame and Decode.
func FuzzDecode(f *testing.F) {
	seed := func(typ byte, msg any) { f.Add(frameBytes(f, typ, msg)[frameHeader:]) }
	seed(TypeReport, &Report{AgentID: 1, Seq: 7, Report: loop.Report{Flows: 3}})
	seed(TypeTick, &TickMsg{Seq: 9, IntervalNanos: 1e6})
	seed(TypeParams, &TickResult{Changed: true})
	seed(TypeParams, &TickResult{Params: dcqcn.Params{
		AIRateBps: 5e6, HAIRateBps: 50e6, G: 0.00390625, PMax: 0.2,
		KminBytes: 400 << 10, KmaxBytes: 1600 << 10, RPGTimeReset: 300000,
		ClampTgtRate: true,
	}})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, tc := range codecCases {
			msg := tc.fresh()
			if Decode(payload, msg) != nil {
				continue
			}
			back := tc.fresh()
			frameRoundTrip(t, tc.typ, msg, back)
			// Compared through the oracle's bytes: bit for bit, NaN-safe.
			if !bytes.Equal(oracleEncode(t, tc.oracle(back)), oracleEncode(t, tc.oracle(msg))) {
				t.Fatalf("%s: the frame round trip turned %+v into %+v", tc.name, msg, back)
			}
		}
	})
}

// FuzzCodecMatchesBinary holds the hand-written codec to encoding/binary
// on arbitrary payloads: for every message type, Decode must return the
// error binary.Read returns and, on success, the same message bit for
// bit, and re-encoding it must give binary.Write's bytes.
func FuzzCodecMatchesBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range codecCases {
		msg := tc.fresh()
		fillRandom(rng, reflect.ValueOf(msg).Elem())
		f.Add(oracleEncode(f, tc.oracle(msg)))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, tc := range codecCases {
			got, ref := tc.fresh(), tc.oracleFresh()
			err := Decode(payload, got)
			if rerr := binary.Read(bytes.NewReader(payload), binary.LittleEndian, ref); err != rerr {
				t.Fatalf("%s: Decode error %v, binary.Read %v", tc.name, err, rerr)
			}
			want := oracleEncode(t, ref)
			if !bytes.Equal(oracleEncode(t, tc.oracle(got)), want) {
				t.Fatalf("%s: Decode disagrees with binary.Read", tc.name)
			}
			if err == nil && !bytes.Equal(frameBytes(t, tc.typ, got)[frameHeader:], want) {
				t.Fatalf("%s: re-encoding differs from binary.Write", tc.name)
			}
		}
	})
}
