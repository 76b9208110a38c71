package ctrlrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
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
			var p ParamsMsg
			_ = Decode(payload, &p)
		}
	})
}

// FuzzDecode hammers the payload decoder directly (below the framing
// layer) with arbitrary bytes against every message type: it must never
// panic, and a payload that decodes as a Report must re-encode stably
// (encode→decode→encode is a fixed point).
func FuzzDecode(f *testing.F) {
	seed := func(typ byte, msg any) {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if _, err := WriteFrame(bw, typ, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[5:]) // payload only, header stripped
	}
	seed(TypeReport, &Report{AgentID: 1, Seq: 7, Flows: 3})
	seed(TypeTick, &TickMsg{Seq: 9, IntervalNanos: 1e6})
	seed(TypeParams, &ParamsMsg{Changed: true, Params: ToWire(FromWire(WireParams{}))})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var tk TickMsg
		_ = Decode(payload, &tk)
		var pm ParamsMsg
		_ = Decode(payload, &pm)
		var r Report
		if err := Decode(payload, &r); err != nil {
			return
		}
		// Fixed-point check, NaN-safe: compare re-encodings, not structs.
		encode := func(msg *Report) []byte {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if _, err := WriteFrame(bw, TypeReport, msg); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			return buf.Bytes()
		}
		first := encode(&r)
		var r2 Report
		if err := Decode(first[5:], &r2); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(first, encode(&r2)) {
			t.Fatal("encode→decode→encode not a fixed point")
		}
	})
}

// FuzzWireParamsRoundTrip checks that any finite parameter vector
// survives the wire encoding bit-exactly.
func FuzzWireParamsRoundTrip(f *testing.F) {
	f.Add(5e6, 50e6, 0.00390625, 0.2, int64(400<<10), int64(1600<<10), int64(300000), true)
	f.Fuzz(func(t *testing.T, ai, hai, g, pmax float64, kmin, kmax, timeReset int64, clamp bool) {
		p := FromWire(WireParams{
			AIRateBps: ai, HAIRateBps: hai, G: g, PMax: pmax,
			KminBytes: kmin, KmaxBytes: kmax, RPGTimeResetNs: timeReset,
			ClampTgtRate: clamp,
		})
		got := FromWire(ToWire(p))
		if got != p {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
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
		f.Add(oracleEncode(f, msg))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, tc := range codecCases {
			got, ref := tc.fresh(), tc.fresh()
			err := Decode(payload, got)
			if rerr := binary.Read(bytes.NewReader(payload), binary.LittleEndian, ref); err != rerr {
				t.Fatalf("%s: Decode error %v, binary.Read %v", tc.name, err, rerr)
			}
			want := oracleEncode(t, ref)
			if !bytes.Equal(oracleEncode(t, got), want) {
				t.Fatalf("%s: Decode disagrees with binary.Read", tc.name)
			}
			if err == nil && !bytes.Equal(frameBytes(t, tc.typ, got)[frameHeader:], want) {
				t.Fatalf("%s: re-encoding differs from binary.Write", tc.name)
			}
		}
	})
}
