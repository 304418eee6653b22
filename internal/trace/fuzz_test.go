package trace

import (
	"bytes"
	"testing"
)

// FuzzReadChrome feeds arbitrary bytes to the trace parser: it must never
// panic, and a file it accepts must survive WriteChrome → ReadChrome →
// WriteChrome byte for byte with the same spans (what `mccs trace` and
// `mccs doctor` rely on when they post-process somebody else's file).
func FuzzReadChrome(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteChrome(&golden, testRecording()); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add([]byte("[]"))
	f.Add([]byte(`[{"name":"mccs_meta","ph":"M","args":{"meta":{"Hosts":["h"],"NodeHost":[7,-1],"CommApp":{"1":"a"}},"dropped":3}}]`))
	f.Add([]byte(`[{"ph":"X","args":{"s":{"k":200,"op":-7,"h":9,"g":-3,"src":-1,"l":"\ud800","rt":[],"rs":[{"bl":99}]}}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteChrome(&first, rec); err != nil {
			t.Fatalf("an accepted recording does not export: %v", err)
		}
		back, err := ReadChrome(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("our own export does not parse: %v", err)
		}
		if len(back.Spans) != len(rec.Spans) || back.Dropped != rec.Dropped || fingerprint(back) != fingerprint(rec) {
			t.Fatalf("round trip changed the recording: %d spans, %d dropped, %#x -> %d, %d, %#x",
				len(rec.Spans), rec.Dropped, fingerprint(rec), len(back.Spans), back.Dropped, fingerprint(back))
		}
		var second bytes.Buffer
		if err := WriteChrome(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("the export of a re-read export differs")
		}
	})
}
