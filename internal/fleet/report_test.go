package fleet

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadRejectsResultsWithNoHostsToJudge(t *testing.T) {
	for _, body := range []string{
		`{}`,
		`{"aborted_wave":-1}`,
		`{"hosts":2,"aborted_wave":-1,"per_host":[{"host":0,"healthy":true}]}`,
		`{"hosts":2,"aborted_wave":-1,"per_host":[{"host":1,"healthy":true},{"host":0,"healthy":true}]}`,
	} {
		if r, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s loaded (passed=%v), want an error", body, r.Passed())
		}
	}
}

// FuzzFleetLoad feeds any bytes to the `fleet-run -json` loader: it never panics,
// and a result it accepts renders, re-encodes and re-loads to the same
// result — same encoding, same report.
func FuzzFleetLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Load(bytes.NewReader(b))
		if err != nil {
			if r != nil {
				t.Fatalf("error %v came with a result", err)
			}
			return
		}
		var report, enc bytes.Buffer
		if err := r.WriteReport(&report); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&enc); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded result does not load: %v\n%s", err, enc.Bytes())
		}
		var report2, enc2 bytes.Buffer
		if err := again.WriteReport(&report2); err != nil {
			t.Fatal(err)
		}
		if err := again.WriteJSON(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc2.Bytes(), enc.Bytes()) {
			t.Fatalf("re-loaded result encodes differently:\n%s\n%s", enc.Bytes(), enc2.Bytes())
		}
		if report2.String() != report.String() {
			t.Fatalf("re-loaded result renders differently:\n%s\n%s", report.String(), report2.String())
		}
	})
}
