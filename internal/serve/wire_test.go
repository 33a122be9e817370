package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"gmreg/internal/tensor"
)

// decodeSeedCorpus enumerates every encoding/json behavior class the
// hand-rolled scanner must replicate (DESIGN.md §14): accept/reject
// boundaries, case-folded and escaped keys, duplicate fields, null
// semantics, surrogate and UTF-8 coercion, number-grammar strictness,
// range errors, skipped unknown fields, and nesting depth.
var decodeSeedCorpus = []string{
	// Plain accepts.
	`{"model":"mlp","features":[1,2,3]}`,
	`{"features":[0.5,-1.25e3,5e-324,2.5e-324],"model":"m"}`,
	`{}`, ` { } `, `null`, `nullx`, `null x`, `{}x`, `{"model":"a"}garbage`,
	`{"model":null}`, `{"features":null}`, `{"features":[]}`,
	`{"features":[null]}`, `{"features":[null,2]}`,
	`{"MODEL":"x"}`, `{"modeL":"y"}`, `{"Features":[1,2]}`,
	`{"\u006dodel":"esc-key"}`,
	`{"model":"a","model":"b"}`, `{"model":"a","model":null}`,
	`{"features":[1],"features":null}`, `{"features":null,"features":[]}`,
	`{"unknown":{"a":[1,{"b":"c"}],"d":1e999}}`, `{"x":1e999}`,
	`{"model":"\ud800"}`, `{"model":"\ud800\ud800"}`, `{"model":"\ud800abc"}`,
	`{"model":"\ud834\udd1e"}`, `{"model":"\n\t\/\\\"\b\f\r\u0041"}`,
	"{\"model\":\"raw-\xff-byte\"}",
	`{"model":"ＭＯＤＥＬ is not a key match but a fine value"}`,
	`{"features":[-0,0e0,-0.0e-0,1E5,1.5e+3]}`,
	`  {  "model" : "ws"  , "features" : [ 1 , 2 ] }  `,
	// Rejects: top-level type errors.
	`5`, `"s"`, `[1,2]`, `true`, `falsex`, `truex`,
	// Rejects: syntax.
	``, `  `, `{`, `{"x":}`, `{"a":1,}`, `{"model":"a"`, `{"x":truex}`,
	`{"a":01}`, `{"features":[01]}`, `{"features":[.5]}`, `{"features":[5.]}`,
	`{"features":[1e+]}`, `{"features":[2,]}`, `{"features":[1 2]}`,
	`nul`, `{"model":"unterminated`, "{\"model\":\"raw-tab\t\"}",
	`{"model":"\x"}`, `{"model":"\u12g4"}`, `{"model":"\u123"}`,
	// Rejects: type errors in known fields.
	`{"model":5}`, `{"model":[1]}`, `{"model":{}}`, `{"model":true}`,
	`{"features":[true]}`, `{"features":["1"]}`, `{"features":[[1]]}`,
	`{"features":{}}`, `{"features":"x"}`, `{"features":1}`,
	// Rejects: range error in a converted field.
	`{"features":[1e999]}`, `{"features":[-1e999]}`,
	// Nesting depth (the 10001-deep variants are built in the fuzz seeds
	// below; these cover moderate recursion).
	`{"x":` + strings.Repeat(`[`, 50) + strings.Repeat(`]`, 50) + `}`,
}

// FuzzPredictDecode is the differential fuzz test: the wire decoder must
// accept exactly the byte strings json.NewDecoder(...).Decode(&predictRequest{})
// accepts, and produce bit-identical parsed values (model string, feature
// bits, and slice nil-ness).
func FuzzPredictDecode(f *testing.F) {
	for _, s := range decodeSeedCorpus {
		f.Add([]byte(s))
	}
	f.Add([]byte(strings.Repeat(`[`, 10001)))
	f.Add([]byte(`{"x":` + strings.Repeat(`[`, 9998) + strings.Repeat(`]`, 9998) + `}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want predictRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		wb := &wireBuf{}
		gotErr := wb.decodePredict(data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept mismatch on %q:\n  encoding/json: %v\n  wire decoder:  %v",
				data, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if string(wb.model) != want.Model {
			t.Fatalf("model mismatch on %q: got %q, want %q", data, wb.model, want.Model)
		}
		if (want.Features == nil) != wb.featNil {
			t.Fatalf("features nil-ness mismatch on %q: got featNil=%v, want nil=%v",
				data, wb.featNil, want.Features == nil)
		}
		if len(want.Features) != len(wb.features) {
			t.Fatalf("features length mismatch on %q: got %d, want %d",
				data, len(wb.features), len(want.Features))
		}
		for i := range want.Features {
			if math.Float64bits(want.Features[i]) != math.Float64bits(wb.features[i]) {
				t.Fatalf("features[%d] mismatch on %q: got %x, want %x",
					i, data, wb.features[i], want.Features[i])
			}
		}
	})
}

// TestDecodeReusesBuffers pins the fast path: every canonical body decodes
// through the scanner (the fallback counter stays put) to the stdlib's
// values, at 0 allocs, reusing the grown backing arrays. FuzzPredictDecode
// alone cannot show this: a decoder that always fell back would pass it.
func TestDecodeReusesBuffers(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := make([]float64, 375)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	hospFA, err := json.Marshal(predictRequest{Model: "hosp-fa", Features: x})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, body string }{
		{"model-first", `{"model":"mlp","features":[9,8,7]}`},
		{"features-first", `{"features":[9,8,7],"model":"mlp"}`},
		{"features-only", `{"features":[0.5,-1.25]}`},
		{"model-only", `{"model":"mlp"}`},
		{"empty-object", `{}`},
		{"empty-features", `{"features":[]}`},
		{"whitespace", " \t{\r\n\"model\" :\t\"m l p\" ,\n\"features\" : [ 1 ,\t2 ] }\r\n "},
		{"number-forms", `{"features":[-0,1E5,5e-324]}`},
		{"hosp-fa", string(hospFA)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			var want predictRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			wb := &wireBuf{}
			if err := wb.decodePredict(body); err != nil {
				t.Fatal(err)
			}
			mcap, fcap := cap(wb.model), cap(wb.features)
			fallbacks := wireFallbacks.Load()
			allocs := testing.AllocsPerRun(100, func() {
				if err := wb.decodePredict(body); err != nil {
					t.Fatal(err)
				}
			})
			if n := wireFallbacks.Load() - fallbacks; n != 0 {
				t.Fatalf("canonical body took the encoding/json fallback %d times", n)
			}
			if allocs != 0 {
				t.Fatalf("steady-state decode allocated %.1f times per run, want 0", allocs)
			}
			if cap(wb.model) != mcap || cap(wb.features) != fcap {
				t.Fatalf("decode replaced pooled backing arrays (model %d→%d, features %d→%d)",
					mcap, cap(wb.model), fcap, cap(wb.features))
			}
			if string(wb.model) != want.Model || wb.featNil != (want.Features == nil) ||
				len(wb.features) != len(want.Features) {
				t.Fatalf("decoded model %q, %d features (nil %v); want %q, %d (nil %v)",
					wb.model, len(wb.features), wb.featNil, want.Model, len(want.Features), want.Features == nil)
			}
			for i, f := range want.Features {
				if math.Float64bits(wb.features[i]) != math.Float64bits(f) {
					t.Fatalf("features[%d] = %v, want %v", i, wb.features[i], f)
				}
			}
		})
	}
}

// TestAppendPredictResponseParity proves the append-based encoder emits
// byte-for-byte what json.NewEncoder would, across edge-case floats (format
// cutoffs, subnormals, negative zero) and hostile strings (HTML metas,
// control characters, U+2028/U+2029, invalid UTF-8), and fails exactly when
// the stdlib encoder would (non-finite values).
func TestAppendPredictResponseParity(t *testing.T) {
	models := []string{
		"mlp", "", "a<b>&c", "\x00\x1f\x7f", "héllo wörld", "\u2028\u2029",
		"tab\there\nnewline", `back\slash "quote"`, "raw-\xff\xfe-bytes",
		"\xed\xa0\x80 utf8-encoded surrogate bytes", "ＭＯＤＥＬ", "𝄞 clef",
	}
	probsCases := [][]float64{
		nil,
		{},
		{0, 1, 0.5},
		{1e-6, 9.999999e-7, 1e-7, 5e-324, -5e-324},
		{1e21, 9.99e20, -1e21, 1e20},
		{math.Copysign(0, -1), 0.1, 0.2, 0.30000000000000004},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		{math.NaN()},
		{math.Inf(1), 0.5},
		{0.5, math.Inf(-1)},
	}
	rng := tensor.NewRNG(7)
	for i := 0; i < 64; i++ {
		ps := make([]float64, 1+i%5)
		for j := range ps {
			// Bit-pattern floats cover every exponent range, NaN and Inf
			// included — both encoders must agree on all of them.
			ps[j] = math.Float64frombits(rng.Uint64())
		}
		probsCases = append(probsCases, ps)
	}
	for mi, model := range models {
		for pi, probs := range probsCases {
			pr := predictResponse{Model: model, Label: mi - 1, Probs: probs,
				Version: versionJSON{Seq: pi, Hash: model + "-hash"}}
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(pr)
			got, gotErr := appendPredictResponse(nil, []byte(model), pr.Label, probs,
				pr.Version.Seq, pr.Version.Hash)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("model=%q probs=%v: error mismatch: stdlib %v, wire %v",
					model, probs, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("model=%q probs=%v:\n got  %q\n want %q",
					model, probs, got, want.Bytes())
			}
		}
	}
}

// TestAppendPredictResponseZeroAlloc pins the encode side of the hot path.
func TestAppendPredictResponseZeroAlloc(t *testing.T) {
	probs := []float64{0.25, 0.5, 0.25}
	model := []byte("mlp")
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := appendPredictResponse(buf[:0], model, 1, probs, 3, "abcdef012345")
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocated %.1f times per run, want 0", allocs)
	}
}
