package relstore

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSV writes the table to w as CSV. The first record is a header of
// "name:kind" cells so that kinds round-trip.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema))
	for i, c := range t.schema {
		header[i] = c.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	record := make([]string, len(t.schema))
	for _, row := range t.rowsSnap() {
		for i, v := range row {
			record[i] = v.Text()
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table in the format produced by WriteCSV.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relstore: reading CSV header for %q: %v", name, err)
	}
	schema, err := ParseSchema(header)
	if err != nil {
		return nil, fmt.Errorf("relstore: CSV header for %q: %v", name, err)
	}
	t := NewTable(name, schema)
	for {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: reading CSV for %q: %v", name, err)
		}
		row, err := schema.ParseRow(record)
		if err != nil {
			return nil, fmt.Errorf("relstore: CSV row for %q: %w", name, err)
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SaveDir writes every table of the database as <dir>/<table>.csv,
// creating dir if needed.
func (db *Database) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads every *.csv file in dir into a new database named name.
func LoadDir(name, dir string) (*Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	db := NewDatabase(name)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		tableName := strings.TrimSuffix(e.Name(), ".csv")
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		t, err := ReadCSV(tableName, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		db.AddTable(t)
	}
	return db, nil
}
