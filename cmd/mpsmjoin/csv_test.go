package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	mpsm "repro"
)

func TestParseKeySpec(t *testing.T) {
	col := func(name string, typ mpsm.ColumnType, desc, nullable, nullsLast bool) mpsm.SchemaColumn {
		return mpsm.SchemaColumn{Name: name, Type: typ, Desc: desc, Nullable: nullable, NullsLast: nullsLast}
	}
	cases := []struct {
		spec string
		want []mpsm.SchemaColumn
	}{
		{"id:int64", []mpsm.SchemaColumn{col("id", mpsm.ColumnInt64, false, false, false)}},
		{"id:int", []mpsm.SchemaColumn{col("id", mpsm.ColumnInt64, false, false, false)}},
		{"id:uint64", []mpsm.SchemaColumn{col("id", mpsm.ColumnUint64, false, false, false)}},
		{"id:uint", []mpsm.SchemaColumn{col("id", mpsm.ColumnUint64, false, false, false)}},
		{"x:float64", []mpsm.SchemaColumn{col("x", mpsm.ColumnFloat64, false, false, false)}},
		{"x:float", []mpsm.SchemaColumn{col("x", mpsm.ColumnFloat64, false, false, false)}},
		{"name:bytes", []mpsm.SchemaColumn{col("name", mpsm.ColumnBytes, false, false, false)}},
		{"name:string", []mpsm.SchemaColumn{col("name", mpsm.ColumnBytes, false, false, false)}},
		{"id:int64:asc", []mpsm.SchemaColumn{col("id", mpsm.ColumnInt64, false, false, false)}},
		{"id:int64:desc", []mpsm.SchemaColumn{col("id", mpsm.ColumnInt64, true, false, false)}},
		{"id:int64:nullable", []mpsm.SchemaColumn{col("id", mpsm.ColumnInt64, false, true, false)}},
		{"id:int64:nullslast", []mpsm.SchemaColumn{col("id", mpsm.ColumnInt64, false, true, true)}},
		{"name:bytes:desc:nullable:nullslast", []mpsm.SchemaColumn{col("name", mpsm.ColumnBytes, true, true, true)}},
		{" region:string , id:int64:desc ", []mpsm.SchemaColumn{
			col("region", mpsm.ColumnBytes, false, false, false),
			col("id", mpsm.ColumnInt64, true, false, false),
		}},
	}
	for _, c := range cases {
		ks, err := parseKeySpec(c.spec)
		if err != nil {
			t.Errorf("parseKeySpec(%q): %v", c.spec, err)
			continue
		}
		if got := ks.schema.Columns(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseKeySpec(%q) columns = %+v, want %+v", c.spec, got, c.want)
		}
		var names []string
		for _, w := range c.want {
			names = append(names, w.Name)
		}
		if !reflect.DeepEqual(ks.names, names) {
			t.Errorf("parseKeySpec(%q) binds %v, want %v", c.spec, ks.names, names)
		}
	}
}

func TestParseKeySpecErrors(t *testing.T) {
	cases := map[string]string{
		"":                "empty -key spec",
		"  ":              "empty -key spec",
		"id":              "want name:type",
		"id:int64,":       "want name:type",
		"id:int32":        `unknown type "int32"`,
		"id:int64:upward": `unknown modifier "upward"`,
	}
	for spec, want := range cases {
		if _, err := parseKeySpec(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseKeySpec(%q) error = %v, want it to mention %q", spec, err, want)
		}
	}
}

// writeFile writes content to a file of the given name in a fresh temp dir.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRelation(t *testing.T) {
	i64 := func(v int64) mpsm.KeyValue { return mpsm.Int64Key(v) }
	str := func(v string) mpsm.KeyValue { return mpsm.StringKey(v) }
	null := mpsm.NullKey()
	cases := []struct {
		name, file, content, sep, key, payload string
		rows                                   [][]mpsm.KeyValue
		payloads                               []uint64
	}{
		{name: "header binds by name, payload is the row index",
			file: "r.csv", content: "val,id\n10,3\n20,-1\n", key: "id:int64",
			rows: [][]mpsm.KeyValue{{i64(3)}, {i64(-1)}}, payloads: []uint64{0, 1}},
		{name: "header names are trimmed",
			file: "r.csv", content: " val , id \n10,3\n", key: "id:int64",
			rows: [][]mpsm.KeyValue{{i64(3)}}, payloads: []uint64{0}},
		{name: "payload column",
			file: "r.csv", content: "id,p\n7, 42\n8,43\n", key: "id:int64", payload: "p",
			rows: [][]mpsm.KeyValue{{i64(7)}, {i64(8)}}, payloads: []uint64{42, 43}},
		{name: ".tsv defaults to tab",
			file: "r.tsv", content: "id\tname\n1\ta,b\n", key: "name:string,id:int64",
			rows: [][]mpsm.KeyValue{{str("a,b"), i64(1)}}, payloads: []uint64{0}},
		{name: "-sep overrides the extension",
			file: "r.tsv", content: "id;name\n1;x\n", sep: ";", key: "id:int64",
			rows: [][]mpsm.KeyValue{{i64(1)}}, payloads: []uint64{0}},
		{name: "UTF-8 byte-order mark before the header",
			file: "r.csv", content: "\ufeffid,val\n5,1\n", key: "id:int64",
			rows: [][]mpsm.KeyValue{{i64(5)}}, payloads: []uint64{0}},
		{name: "empty and blank cells of a nullable number are null",
			file: "r.csv", content: "id,n\n,1\n 5 ,2\n ,3\n", key: "id:int64:nullable",
			rows: [][]mpsm.KeyValue{{null}, {i64(5)}, {null}}, payloads: []uint64{0, 1, 2}},
		{name: "bytes keep whitespace; only an empty cell is null",
			file: "r.csv", content: "name,n\n ,1\n,2\n", key: "name:bytes:nullable",
			rows: [][]mpsm.KeyValue{{str(" ")}, {null}}, payloads: []uint64{0, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ks, err := parseKeySpec(c.key)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loadRelation("R", writeFile(t, c.file, c.content), c.sep, ks, c.payload)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ks.schema.Encode("R", c.rows, c.payloads)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Meta, want.Meta) {
				t.Errorf("loaded %v, want %v", got.Tuples, want.Tuples)
			}
		})
	}
}

func TestLoadRelationErrors(t *testing.T) {
	cases := []struct {
		name, content, key, payload, want string
	}{
		{"empty file", "", "id:int64", "", "r.csv: reading header"},
		{"key column missing", "a,b\n1,2\n", "id:int64", "", `key column "id" not in header`},
		{"payload column missing", "id\n1\n", "id:int64", "p", `payload column "p" not in header`},
		{"short row", "a,id\n1,2\n3\n", "id:int64", "", "r.csv:3:"},
		{"bad number", "id\n1\nx\n", "id:int64", "", `r.csv:3: column "id"`},
		{"blank non-nullable number", "id\n \n", "id:int64", "", `r.csv:2: column "id"`},
		{"bad payload", "id,p\n1,-4\n", "id:int64", "p", "r.csv:2: payload"},
		{"short row before the payload", "id,x,p\n1,2,3\n4\n", "id:int64", "p", "r.csv:3:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ks, err := parseKeySpec(c.key)
			if err != nil {
				t.Fatal(err)
			}
			_, err = loadRelation("R", writeFile(t, "r.csv", c.content), "", ks, c.payload)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want it to mention %q", err, c.want)
			}
		})
	}
}
