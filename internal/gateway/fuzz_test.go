package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/store"
)

// rangeSpec is the only byte-range spec the gateway serves: one range,
// positions of digits only (RFC 7233 §2.1), at least one of them given.
var rangeSpec = regexp.MustCompile(`^[0-9]*-[0-9]*$`)

// FuzzParseRange throws arbitrary Range headers and object sizes at the
// gateway's parser: it never panics, a header it accepts is a single
// digits-only range, and a satisfiable window lies inside the object.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []struct {
		h    string
		size int64
	}{
		{"bytes=+0-+9", 100},
		{"bytes=-+5", 100},
		{"bytes=0-99", 100},
		{"bytes=-100", 50},
		{"bytes=5000-", 100},
		{"bytes=0-99999999999999999999", 100},
		{"bytes= 3-4 ", 10},
		{"bytes=-0", 0},
		{"bytes=0-1,5-6", 10},
	} {
		f.Add(seed.h, seed.size)
	}
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			return // object sizes come from the store, never negative
		}
		off, length, ok, satisfiable := parseRange(h, size)
		if !ok {
			return
		}
		spec, found := strings.CutPrefix(h, "bytes=")
		spec = strings.TrimSpace(spec)
		if !found || !rangeSpec.MatchString(spec) || !strings.ContainsAny(spec, "0123456789") {
			t.Fatalf("parseRange(%q, %d) accepted a spec that is not one digits-only range", h, size)
		}
		if satisfiable && (off < 0 || length < 1 || off+length > size) {
			t.Fatalf("parseRange(%q, %d) = [%d, +%d), outside the object", h, size, off, length)
		}
	})
}

// FuzzValidateTenant throws arbitrary tenant path segments at the
// gateway's check: it never panics, and a name it accepts is one
// segment (no '/'), stays out of the reserved leading-dot namespace,
// and is a valid store name.
func FuzzValidateTenant(f *testing.F) {
	for _, seed := range []string{"acme", "", ".mpu", "a/b", "a.b", "..", "a\x00b", "t-1_2", strings.Repeat("x", 300)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tenant string) {
		if validateTenant(tenant) != nil {
			return
		}
		if strings.Contains(tenant, "/") || strings.HasPrefix(tenant, ".") {
			t.Fatalf("validateTenant accepted %q: not one segment outside the reserved namespace", tenant)
		}
		if err := store.ValidateName(tenant); err != nil {
			t.Fatalf("validateTenant accepted %q, which the store refuses: %v", tenant, err)
		}
	})
}

// FuzzUploadRecord stores arbitrary bytes as a multipart upload record
// and looks them up under a fuzzed id, tenant and key: getUpload never
// panics, accepts a record only when it names the caller's tenant and
// key, and a record beginUpload wrote round-trips for the tenant and key
// it was begun with.
func FuzzUploadRecord(f *testing.F) {
	for _, seed := range []struct {
		id, rec, tenant, key string
	}{
		{"0123abcd", `{"tenant":"acme","key":"k"}`, "acme", "k"},
		{"0123abcd", `{"tenant":"acme","key":"k"}`, "other", "k"},
		{"0123abcd", `{"tenant":"acme","key":"k","extra":[1]}`, "acme", "k"},
		{"up", `{"Tenant":"acme","KEY":"a/b"}`, "acme", "a/b"},
		{"up", `{"tenant":"acme"}`, "acme", ""},
		{"up", `null`, "", ""},
		{"up", `{"tenant":1}`, "acme", "k"},
		{"up", "not json", "acme", "k"},
		{"../up", `{"tenant":"acme","key":"k"}`, "acme", "k"},
	} {
		f.Add(seed.id, []byte(seed.rec), seed.tenant, seed.key)
	}
	st, err := store.New(store.Config{BlockSize: 256})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	g, err := New(Config{Store: st})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, id string, raw []byte, tenant, key string) {
		if st.PutUploadRecord(id, raw) == nil {
			got, err := g.getUpload(id, tenant, key)
			var want uploadRecord
			if err == nil && (json.Unmarshal(raw, &want) != nil || want != (uploadRecord{Tenant: tenant, Key: key}) || got != want) {
				t.Fatalf("getUpload(%q, %q, %q) accepted record %q as %+v", id, tenant, key, raw, got)
			}
			if err := st.DeleteUploadRecord(id); err != nil {
				t.Fatal(err)
			}
		}

		// The router begins an upload only for a valid tenant and name.
		if validateTenant(tenant) != nil || store.ValidateName(tenant+"/"+key) != nil {
			return
		}
		w := httptest.NewRecorder()
		g.beginUpload(w, tenant, key)
		var resp struct {
			UploadID string `json:"uploadId"`
		}
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
			t.Fatalf("beginUpload(%q, %q): %d %s", tenant, key, w.Code, w.Body.Bytes())
		}
		got, err := g.getUpload(resp.UploadID, tenant, key)
		if err != nil || got != (uploadRecord{Tenant: tenant, Key: key}) {
			t.Fatalf("upload %q begun for %q/%q reads back %+v, %v", resp.UploadID, tenant, key, got, err)
		}
		if err := st.DeleteUploadRecord(resp.UploadID); err != nil {
			t.Fatal(err)
		}
	})
}
