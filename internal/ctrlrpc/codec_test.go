package ctrlrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The hand-written codec is held to encoding/binary, which it replaced:
// binary.Write and binary.Read stay here as the reference.

func oracleEncode(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, msg); err != nil {
		t.Fatalf("binary.Write: %v", err)
	}
	return buf.Bytes()
}

func frameBytes(t testing.TB, typ byte, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteFrame(bufio.NewWriter(&buf), typ, msg)
	if err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if n != buf.Len() {
		t.Fatalf("WriteFrame reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// randomFloat favours the values a bit-exact codec gets wrong first: NaNs
// with payloads, infinities and negative zero.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Float64frombits(0x7FF0000000000001 | rng.Uint64()) // NaN, random payload and sign
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return rng.NormFloat64() * 1e9
	}
	return math.Float64frombits(rng.Uint64())
}

// fillRandom sets every field of the struct v points at.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(rng, v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Float64:
		v.SetFloat(randomFloat(rng))
	case reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Uint64()))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64())
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// codecCase is one wire message: its frame type, wire size and a fresh
// zero value to decode into.
type codecCase struct {
	name  string
	typ   byte
	size  int
	fresh func() any
}

var codecCases = []codecCase{
	{"Report", TypeReport, reportSize, func() any { return new(Report) }},
	{"TickMsg", TypeTick, tickSize, func() any { return new(TickMsg) }},
	{"AckMsg", TypeApplyAck, ackSize, func() any { return new(AckMsg) }},
	{"ParamsMsg", TypeParams, paramsSize, func() any { return new(ParamsMsg) }},
}

func TestCodecMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range codecCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := binary.Size(tc.fresh()); got != tc.size {
				t.Fatalf("binary.Size %d, codec size %d", got, tc.size)
			}
			for i := 0; i < 500; i++ {
				msg := tc.fresh()
				fillRandom(rng, reflect.ValueOf(msg).Elem())
				want := oracleEncode(t, msg)
				frame := frameBytes(t, tc.typ, msg)
				if !bytes.Equal(frame[frameHeader:], want) {
					t.Fatalf("encoding differs from binary.Write:\n got %x\nwant %x", frame[frameHeader:], want)
				}
				if size := binary.LittleEndian.Uint32(frame); int(size) != tc.size || frame[4] != tc.typ {
					t.Fatalf("header says %d bytes of type %d", size, frame[4])
				}
				got, ref := tc.fresh(), tc.fresh()
				if err := Decode(want, got); err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if err := binary.Read(bytes.NewReader(want), binary.LittleEndian, ref); err != nil {
					t.Fatalf("binary.Read: %v", err)
				}
				// Compared through the oracle's bytes: bit for bit, NaN-safe.
				if !bytes.Equal(oracleEncode(t, got), oracleEncode(t, ref)) {
					t.Fatalf("Decode disagrees with binary.Read:\n got %+v\nwant %+v", got, ref)
				}
			}
		})
	}
}

// TestDecodeNonCanonicalBool: binary.Read maps any non-zero byte to true.
func TestDecodeNonCanonicalBool(t *testing.T) {
	ack := oracleEncode(t, &AckMsg{AgentID: 3, Epoch: 9})
	ack[ackSize-1] = 0x7F
	params := oracleEncode(t, &ParamsMsg{})
	params[0], params[1] = 2, 0xFF
	params[10+7*8] = 0x80 // WireParams.ClampTgtRate
	for _, tc := range []struct {
		payload   []byte
		got, want any
	}{
		{ack, new(AckMsg), new(AckMsg)},
		{params, new(ParamsMsg), new(ParamsMsg)},
	} {
		if err := Decode(tc.payload, tc.got); err != nil {
			t.Fatal(err)
		}
		if err := binary.Read(bytes.NewReader(tc.payload), binary.LittleEndian, tc.want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("got %+v, binary.Read %+v", tc.got, tc.want)
		}
	}
	var a AckMsg
	var p ParamsMsg
	Decode(ack, &a)
	Decode(params, &p)
	if !a.Applied || !p.Changed || !p.Triggered || !p.Params.ClampTgtRate {
		t.Errorf("non-canonical bool bytes did not decode as true: %+v %+v", a, p)
	}
}

func TestDecodeShortAndTrailing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range codecCases {
		msg := tc.fresh()
		fillRandom(rng, reflect.ValueOf(msg).Elem())
		payload := oracleEncode(t, msg)
		for _, cut := range []int{0, 1, tc.size - 1} {
			out := tc.fresh()
			err := Decode(payload[:cut], out)
			ref := binary.Read(bytes.NewReader(payload[:cut]), binary.LittleEndian, tc.fresh())
			if err == nil || err != ref {
				t.Errorf("%s cut to %d: error %v, binary.Read %v", tc.name, cut, err, ref)
			}
			if !reflect.DeepEqual(out, tc.fresh()) {
				t.Errorf("%s cut to %d: short payload modified the output", tc.name, cut)
			}
		}
		long := append(append([]byte(nil), payload...), 0xDE, 0xAD, 0xBE, 0xEF)
		out := tc.fresh()
		if err := Decode(long, out); err != nil {
			t.Errorf("%s with trailing bytes: %v", tc.name, err)
		} else if !bytes.Equal(oracleEncode(t, out), payload) {
			t.Errorf("%s: trailing bytes changed the decoded message", tc.name)
		}
	}
}

func TestCodecRejectsNonMessages(t *testing.T) {
	payload := make([]byte, reportSize)
	var x uint64
	for _, out := range []any{nil, &x, Report{}, &WireParams{}, &payload} {
		if err := Decode(payload, out); err == nil {
			t.Errorf("Decode into %T succeeded", out)
		}
	}
	bw := bufio.NewWriter(io.Discard)
	for _, msg := range []any{x, &x, Report{}, &WireParams{}, payload} {
		if _, err := WriteFrame(bw, TypeReport, msg); err == nil {
			t.Errorf("WriteFrame of %T succeeded", msg)
		}
	}
}

// TestFrameSizes pins the Table IV byte counts.
func TestFrameSizes(t *testing.T) {
	for _, tc := range []struct {
		typ  byte
		msg  any
		want int
	}{
		{TypeReport, &Report{}, 221},
		{TypeParams, &ParamsMsg{}, 128},
		{TypeApplyAck, &AckMsg{}, 26},
		{TypeTick, &TickMsg{}, 21},
		{TypeAck, nil, 5},
	} {
		if got := len(frameBytes(t, tc.typ, tc.msg)); got != tc.want {
			t.Errorf("type %d frame is %d bytes, want %d", tc.typ, got, tc.want)
		}
	}
}

// TestFrameCodecZeroAlloc gates the per-frame path: encoding a frame, the
// connection read into a kept buffer, and decoding it allocate nothing.
func TestFrameCodecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bw := bufio.NewWriter(io.Discard)
	var rbuf []byte
	for _, tc := range codecCases {
		msg := tc.fresh()
		fillRandom(rng, reflect.ValueOf(msg).Elem())
		frame := frameBytes(t, tc.typ, msg)
		rd := bytes.NewReader(frame)
		br := bufio.NewReader(rd)
		var err error
		// Each side works on a local, as the server and client do: the
		// message must not escape through WriteFrame or Decode.
		if a := testing.AllocsPerRun(1000, func() {
			switch m := msg.(type) {
			case *Report:
				local := *m
				_, err = WriteFrame(bw, tc.typ, &local)
			case *TickMsg:
				local := *m
				_, err = WriteFrame(bw, tc.typ, &local)
			case *AckMsg:
				local := *m
				_, err = WriteFrame(bw, tc.typ, &local)
			case *ParamsMsg:
				local := *m
				_, err = WriteFrame(bw, tc.typ, &local)
			}
		}); a != 0 || err != nil {
			t.Errorf("%s: WriteFrame allocates %.1f per frame (err %v), want 0", tc.name, a, err)
		}
		if a := testing.AllocsPerRun(1000, func() {
			rd.Reset(frame)
			br.Reset(rd)
			var payload []byte
			if _, payload, _, err = readFrame(br, &rbuf); err != nil {
				return
			}
			switch msg.(type) {
			case *Report:
				var out Report
				err = Decode(payload, &out)
			case *TickMsg:
				var out TickMsg
				err = Decode(payload, &out)
			case *AckMsg:
				var out AckMsg
				err = Decode(payload, &out)
			case *ParamsMsg:
				var out ParamsMsg
				err = Decode(payload, &out)
			}
		}); a != 0 || err != nil {
			t.Errorf("%s: read and Decode allocate %.1f per frame (err %v), want 0", tc.name, a, err)
		}
	}
}
