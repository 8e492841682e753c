package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	mpsm "repro"
)

// utf8BOM is the byte-order mark some tools write at the start of a file.
const utf8BOM = "\ufeff"

// keySpec is the parsed form of the -key flag: the schema plus, per column,
// the input-file column name it binds to.
type keySpec struct {
	names  []string
	schema *mpsm.Schema
}

// parseKeySpec parses a -key flag value. The grammar is a comma-separated
// list of column specs, each
//
//	name:type[:desc][:nullable][:nullslast]
//
// where type is one of int64 (int), uint64 (uint), float64 (float) and
// bytes (string). Examples:
//
//	-key "customer_id:int64"
//	-key "region:string,signup:int64:desc"
//	-key "name:bytes:nullable:nullslast"
func parseKeySpec(spec string) (*keySpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty -key spec")
	}
	ks := &keySpec{}
	var cols []mpsm.SchemaColumn
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(field), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("key column %q: want name:type[:modifiers]", field)
		}
		col := mpsm.SchemaColumn{Name: parts[0]}
		switch parts[1] {
		case "int64", "int":
			col.Type = mpsm.ColumnInt64
		case "uint64", "uint":
			col.Type = mpsm.ColumnUint64
		case "float64", "float":
			col.Type = mpsm.ColumnFloat64
		case "bytes", "string":
			col.Type = mpsm.ColumnBytes
		default:
			return nil, fmt.Errorf("key column %q: unknown type %q", parts[0], parts[1])
		}
		for _, mod := range parts[2:] {
			switch mod {
			case "asc":
			case "desc":
				col.Desc = true
			case "nullable":
				col.Nullable = true
			case "nullslast":
				col.Nullable = true
				col.NullsLast = true
			default:
				return nil, fmt.Errorf("key column %q: unknown modifier %q", parts[0], mod)
			}
		}
		ks.names = append(ks.names, col.Name)
		cols = append(cols, col)
	}
	schema, err := mpsm.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	ks.schema = schema
	return ks, nil
}

// loadRelation reads a delimited file into a relation keyed under the spec's
// schema. The first row must be a header; key (and payload) columns are bound
// by name. The delimiter comes from -sep, defaulting to tab for .tsv files
// and comma otherwise. Empty cells — and, in numeric columns, blank ones —
// are null for nullable columns; a non-nullable bytes column reads an empty
// cell as the empty string. payloadCol selects an unsigned integer payload
// column (row index when empty).
func loadRelation(name, path, sep string, ks *keySpec, payloadCol string) (*mpsm.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Spreadsheet exports start with a UTF-8 byte-order mark; it is not part
	// of the first column's name.
	br := bufio.NewReader(f)
	if bom, err := br.Peek(len(utf8BOM)); err == nil && string(bom) == utf8BOM {
		_, _ = br.Discard(len(utf8BOM)) // cannot fail: Peek just buffered these bytes
	}
	r := csv.NewReader(br)
	r.ReuseRecord = true
	switch {
	case sep != "":
		r.Comma = rune(sep[0])
	case strings.EqualFold(filepath.Ext(path), ".tsv"):
		r.Comma = '\t'
	}

	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("%s: reading header: %w", path, err)
	}
	keyIdx := make([]int, len(ks.names))
	for i, want := range ks.names {
		keyIdx[i] = -1
		for j, h := range header {
			if strings.TrimSpace(h) == want {
				keyIdx[i] = j
				break
			}
		}
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("%s: key column %q not in header %v", path, want, header)
		}
	}
	payIdx := -1
	if payloadCol != "" {
		for j, h := range header {
			if strings.TrimSpace(h) == payloadCol {
				payIdx = j
				break
			}
		}
		if payIdx < 0 {
			return nil, fmt.Errorf("%s: payload column %q not in header %v", path, payloadCol, header)
		}
	}

	cols := ks.schema.Columns()
	var rows [][]mpsm.KeyValue
	var payloads []uint64
	for line := 2; ; line++ {
		rec, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		row := make([]mpsm.KeyValue, len(keyIdx))
		for i, j := range keyIdx {
			if j >= len(rec) {
				return nil, fmt.Errorf("%s:%d: row has %d fields, key column %q is #%d", path, line, len(rec), ks.names[i], j+1)
			}
			v, err := parseKeyValue(rec[j], cols[i])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: column %q: %w", path, line, ks.names[i], err)
			}
			row[i] = v
		}
		pay := uint64(len(rows))
		if payIdx >= 0 {
			if payIdx >= len(rec) {
				return nil, fmt.Errorf("%s:%d: row has %d fields, payload column is #%d", path, line, len(rec), payIdx+1)
			}
			pay, err = strconv.ParseUint(strings.TrimSpace(rec[payIdx]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: payload: %w", path, line, err)
			}
		}
		rows = append(rows, row)
		payloads = append(payloads, pay)
	}
	return ks.schema.Encode(name, rows, payloads)
}

// parseKeyValue converts one cell under its schema column. Numbers are
// parsed with surrounding spaces trimmed, so a blank numeric cell is null
// like an empty one; bytes keep every character.
func parseKeyValue(cell string, col mpsm.SchemaColumn) (mpsm.KeyValue, error) {
	if col.Type == mpsm.ColumnBytes {
		if cell == "" && col.Nullable {
			return mpsm.NullKey(), nil
		}
		return mpsm.StringKey(cell), nil
	}
	num := strings.TrimSpace(cell)
	if num == "" && col.Nullable {
		return mpsm.NullKey(), nil
	}
	switch col.Type {
	case mpsm.ColumnInt64:
		v, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			return mpsm.KeyValue{}, err
		}
		return mpsm.Int64Key(v), nil
	case mpsm.ColumnUint64:
		v, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			return mpsm.KeyValue{}, err
		}
		return mpsm.Uint64Key(v), nil
	default: // mpsm.ColumnFloat64
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return mpsm.KeyValue{}, err
		}
		return mpsm.Float64Key(v), nil
	}
}

// loadFileInputs loads both join inputs for file mode.
func loadFileInputs(rPath, sPath, sep, spec, payloadCol string) (*mpsm.Relation, *mpsm.Relation, error) {
	if rPath == "" || sPath == "" {
		return nil, nil, fmt.Errorf("file mode needs both -r-file and -s-file")
	}
	ks, err := parseKeySpec(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("-key: %w", err)
	}
	r, err := loadRelation("R", rPath, sep, ks, payloadCol)
	if err != nil {
		return nil, nil, err
	}
	s, err := loadRelation("S", sPath, sep, ks, payloadCol)
	if err != nil {
		return nil, nil, err
	}
	return r, s, nil
}
