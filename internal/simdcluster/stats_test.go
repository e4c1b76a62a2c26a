package simdcluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/simd"
)

// fillLeaves sets every leaf of a stats document to something non-zero —
// numbers to successive values from *next, flags to true, strings to a
// marker — allocating the optional blocks, so a field nobody sums cannot
// hide behind a zero.
func fillLeaves(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("member's own")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(v.Elem(), next)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"done", "running"} {
			e := reflect.New(v.Type().Elem()).Elem()
			fillLeaves(e, next)
			v.SetMapIndex(reflect.ValueOf(k), e)
		}
	case reflect.Struct:
		if _, instant := v.Interface().(time.Time); instant {
			v.Set(reflect.ValueOf(time.Unix(1700000000, 0).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(v.Field(i), next)
		}
	}
}

// checkSummed walks the total's JSON beside the members': a number must
// be the members' sum, a flag their OR, a string empty; path names the
// leaf in failures.
func checkSummed(t *testing.T, path string, total any, members []any) {
	t.Helper()
	switch tv := total.(type) {
	case map[string]any:
		for k, v := range tv {
			if path == "" && (k == "started_at" || k == "uptime_seconds") {
				continue // the router's own, not a sum
			}
			var sub []any
			for _, m := range members {
				sub = append(sub, m.(map[string]any)[k])
			}
			checkSummed(t, path+"/"+k, v, sub)
		}
		for k := range members[0].(map[string]any) {
			if _, ok := tv[k]; !ok && k != "node_id" {
				t.Errorf("%s/%s: in every member's stats, missing from the total", path, k)
			}
		}
	case float64:
		var sum float64
		for _, m := range members {
			sum += m.(float64)
		}
		if tv != sum {
			t.Errorf("%s: total %v, members sum to %v", path, tv, sum)
		}
	case bool:
		if !tv {
			t.Errorf("%s: total false, members all true", path)
		}
	case string:
		if tv != "" {
			t.Errorf("%s: total %q, want it left empty", path, tv)
		}
	}
}

// TestClusterStatsSumEveryField: the cluster /stats total is the sum of
// nodes[].stats in the same response, for every numeric leaf simd.Stats
// has — found by reflection, so the next field added to it is covered
// (and summed) without anyone remembering to. Members are canned: each
// serves a stats document with no zero in it.
func TestClusterStatsSumEveryField(t *testing.T) {
	c := New(Options{HealthInterval: 10 * time.Millisecond})
	defer c.Close()
	var next int64
	for _, id := range []string{"n1", "n2", "n3"} {
		var st simd.Stats
		fillLeaves(reflect.ValueOf(&st).Elem(), &next)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]string{"status": "ok", "node_id": id})
		})
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(st)
		})
		ts := httptest.NewServer(mux)
		defer ts.Close()
		c.AddMember(id, ts.URL, 0)
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		if err := c.WaitUp(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	rt := httptest.NewServer(c.Handler())
	defer rt.Close()
	resp, err := http.Get(rt.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var members []any
	for _, n := range doc["nodes"].([]any) {
		members = append(members, n.(map[string]any)["stats"])
	}
	if len(members) != 3 {
		t.Fatalf("scraped %d/3 members", len(members))
	}
	// The total is the document minus the router's own fields.
	for k := range doc {
		if _, ok := members[0].(map[string]any)[k]; !ok {
			delete(doc, k)
		}
	}
	if doc["journal"] == nil || doc["store"] == nil {
		t.Fatalf("total lacks the journal or store block: %v", doc)
	}
	checkSummed(t, "", doc, members)
}
