package wire

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchShaped is a body as bench/ and every client in the tree build one:
// json.Marshal of an AnnotateRequest.
func benchShaped(t testing.TB, text string, top int) []byte {
	t.Helper()
	b, err := json.Marshal(AnnotateRequest{Text: text, Top: top})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benchSentence carries the escapes a news story does once marshalled: the
// quote, the newline, & as \u0026, and a multi-byte rune passed through raw.
const benchSentence = "Reuters said the alphaword met the \"betaword\" near ctx as profits rose 4% & costs fell — see www.example.com.\n"

// accepted are bodies the scanner must take itself — declining everything
// would satisfy the differential property and lose the whole point.
var accepted = []string{
	`{"text":"the alphaword met the betaword","top":3}`,
	`{}`,
	`{"text":""}`,
	" \t\r\n{ \"top\" : -1 , \"html\" : true , \"text\" : \"<p>x</p>\" } trailing garbage",
	`{"html":false,"text":"a"}`,
	`{"text":"quote \" backslash \\ slash \/ \b\f\n\r\t"}`,
	`{"text":"bmp \u00e9\u4e16\u0000 pair \ud83d\ude00 upper \uD83D\uDE00"}`,
	`{"text":"raw é 世 😀 ` + "\x7f" + `"}`,
	`{"text":"\ufffd and a literal ` + "\ufffd" + `"}`,
	`{"text":"x","top":-0}`,
	`{"text":"x","top":999999999999999999}`,
	`{"text":"x"}{"text":"y"}`,
}

// declined are bodies that must reach encoding/json untouched.
var declined = []string{
	``,
	`   `,
	`null`,
	`"text"`,
	`[{"text":"x"}]`,
	`{nope`,
	`{"text":"x"`,
	`{"text":"x",}`,
	`{"text":"x" "top":1}`,
	`{"Text":"x"}`,
	`{"TEXT":"x","Top":2}`,
	`{"te\u0078t":"x"}`,
	`{"text":"x","text":"y"}`,
	`{"text":"x","top":1,"top":2}`,
	`{"text":null}`,
	`{"text":"x","html":null}`,
	`{"text":"x","top":null}`,
	`{"text":"x","extra":{"nested":[1,2,{"a":"b"}]}}`,
	`{"text":7}`,
	`{"text":"x","html":"true"}`,
	`{"text":"x","html":truex}`,
	`{"text":"x","top":"3"}`,
	`{"text":"x","top":1.0}`,
	`{"text":"x","top":1e2}`,
	`{"text":"x","top":01}`,
	`{"text":"x","top":-}`,
	`{"text":"x","top":+1}`,
	`{"text":"x","top":12345678901234567890}`,
	`{"text":"x","top":9223372036854775807}`,
	`{"text":"lone high \ud83d"}`,
	`{"text":"lone low \ude00"}`,
	`{"text":"high then bmp \ud83d\u0041"}`,
	`{"text":"high then raw \ud83dx"}`,
	`{"text":"bad escape \x"}`,
	`{"text":"short \u12"}`,
	`{"text":"not hex \u12g4"}`,
	`{"text":"invalid utf-8 ` + "\xff\xfe" + `"}`,
	`{"text":"truncated rune ` + "\xe4\xb8" + `"}`,
	"{\"text\":\"raw control \x01\"}",
	"{\"text\":\"raw newline \n\"}",
	"\xef\xbb\xbf" + `{"text":"bom"}`,
}

func TestScanAcceptsTheClientShapeOnly(t *testing.T) {
	for _, body := range accepted {
		if _, ok := scan([]byte(body)); !ok {
			t.Errorf("scanner declined %q", body)
		}
	}
	for _, body := range declined {
		if _, ok := scan([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// checkAgainstJSON is the differential property, for any body: an accepted
// body decodes as encoding/json decodes it; a declined one is not written
// to and gets encoding/json's result and error text; and the router's key,
// computed off the raw bytes without changing them, is Key over the decoded
// fields (or the raw-bytes key when there is no text to key on).
func checkAgainstJSON(t *testing.T, body []byte) {
	t.Helper()
	orig := bytes.Clone(body)
	var want AnnotateRequest
	wantErr := json.NewDecoder(bytes.NewReader(orig)).Decode(&want)

	key := RouteKey(body)
	if !bytes.Equal(body, orig) {
		t.Fatalf("RouteKey wrote to the body: %q -> %q", orig, body)
	}
	_, ok := scan(body)
	wantKey := Key(orig, -1)
	if ok && want.Text != "" {
		if want.HTML {
			wantKey = Key("html\x00"+want.Text, want.Top)
		} else {
			wantKey = Key(want.Text, want.Top)
		}
	}
	if key != wantKey {
		t.Fatalf("RouteKey(%q) = %#x, want %#x (accepted=%v)", orig, key, wantKey, ok)
	}

	got, err := ParseRequest(body)
	if ok {
		if wantErr != nil {
			t.Fatalf("scanner accepted %q, encoding/json says %v", orig, wantErr)
		}
	} else if !bytes.Equal(body, orig) {
		t.Fatalf("declined body was written to: %q -> %q", orig, body)
	}
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ParseRequest(%q) error %v, encoding/json %v", orig, err, wantErr)
	}
	if err == nil && (string(got.Text) != want.Text || got.HTML != want.HTML || got.Top != want.Top) {
		t.Fatalf("ParseRequest(%q) = {%q %v %d}, encoding/json {%q %v %d}",
			orig, got.Text, got.HTML, got.Top, want.Text, want.HTML, want.Top)
	}
}

func FuzzParseRequest(f *testing.F) {
	for _, body := range accepted {
		f.Add([]byte(body))
	}
	for _, body := range declined {
		f.Add([]byte(body))
	}
	f.Add(benchShaped(f, strings.Repeat(benchSentence, 3), 3))
	short := `{"text":"aé\"","html":true,"top":-12}`
	for i := 0; i <= len(short); i++ {
		f.Add([]byte(short[:i]))
	}
	f.Fuzz(checkAgainstJSON)
}

// TestParseRequestViewAliasesBody pins who owns what: the accepted Text is
// a view into the body (no copy), so the caller must copy it before the
// buffer is reused; a declined body yields a Text of its own.
func TestParseRequestViewAliasesBody(t *testing.T) {
	body := []byte(`{"text":"a\nb","top":2}`)
	req, err := ParseRequest(body)
	if err != nil || string(req.Text) != "a\nb" {
		t.Fatalf("ParseRequest = %q, %v", req.Text, err)
	}
	copy(body, bytes.Repeat([]byte{'#'}, len(body)))
	if string(req.Text) != "###" {
		t.Fatalf("accepted Text is not a view into the body: %q", req.Text)
	}

	body = []byte(`{"text":"a\nb","other":1}`)
	req, err = ParseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	copy(body, bytes.Repeat([]byte{'#'}, len(body)))
	if string(req.Text) != "a\nb" {
		t.Fatalf("declined body's Text aliases the body: %q", req.Text)
	}
}

// TestKeyMatchesHashFNV: the inline loop is hash/fnv's FNV-64a over the text
// and top's decimal digits, for strings and byte slices alike.
func TestKeyMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		text := make([]byte, rng.Intn(300))
		rng.Read(text)
		top := rng.Intn(2001) - 1000
		if i%7 == 0 {
			top = int(rng.Int63()) * (1 - 2*rng.Intn(2))
		}
		h := fnv.New64a()
		h.Write(text)
		h.Write([]byte(strconv.Itoa(top)))
		if got := Key(text, top); got != h.Sum64() {
			t.Fatalf("Key(%q, %d) = %#x, hash/fnv %#x", text, top, got, h.Sum64())
		}
		if got := Key(string(text), top); got != h.Sum64() {
			t.Fatalf("Key(string %q, %d) = %#x, hash/fnv %#x", text, top, got, h.Sum64())
		}
	}
}

func TestRetryAfter(t *testing.T) {
	for d, want := range map[time.Duration]string{
		-time.Second:            "1",
		0:                       "1",
		time.Millisecond:        "1",
		time.Second:             "1",
		time.Second + 1:         "2",
		2500 * time.Millisecond: "3",
	} {
		if got := RetryAfter(d); got != want {
			t.Errorf("RetryAfter(%v) = %q, want %q", d, got, want)
		}
	}
}

var keySink uint64

// BenchmarkRouteKey is the router's whole per-request decode: the key of a
// 4 KB body with escapes, off the raw bytes. `make bench` guards its
// allocs/op at zero.
func BenchmarkRouteKey(b *testing.B) {
	body := benchShaped(b, strings.Repeat(benchSentence, 38), 3)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = RouteKey(body)
	}
}
