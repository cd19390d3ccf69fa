// Package codec serializes probabilistic instances. Two formats are
// provided: a self-describing JSON encoding for interchange and tooling,
// and a compact line-oriented text encoding whose write path is cheap —
// the paper's Figure 7 "total query time" includes writing the resulting
// instance to disk, and the selection experiment is dominated by that leg,
// so the codec is part of the reproduced pipeline.
package codec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// FormatJSON identifies the JSON encoding.
const FormatJSON = "pxml-json/1"

// jsonDoc is the top-level JSON document.
type jsonDoc struct {
	Format  string       `json:"format"`
	Root    string       `json:"root"`
	Types   []jsonType   `json:"types,omitempty"`
	Objects []jsonObject `json:"objects"`
}

type jsonType struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain"`
}

type jsonObject struct {
	ID       string      `json:"id"`
	Children []jsonLabel `json:"children,omitempty"`
	OPF      []jsonOPF   `json:"opf,omitempty"`
	Type     string      `json:"type,omitempty"`
	Value    *string     `json:"value,omitempty"`
	VPF      []jsonVPF   `json:"vpf,omitempty"`
}

type jsonLabel struct {
	Label string    `json:"label"`
	IDs   []string  `json:"ids"`
	Card  *jsonCard `json:"card,omitempty"`
}

type jsonCard struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

type jsonOPF struct {
	Set []string `json:"set"`
	P   float64  `json:"p"`
}

type jsonVPF struct {
	Value string  `json:"value"`
	P     float64 `json:"p"`
}

// EncodeJSON writes the instance as indented JSON.
func EncodeJSON(w io.Writer, pi *core.ProbInstance) error {
	doc := jsonDoc{Format: FormatJSON, Root: pi.Root()}
	var typeNames []string
	for name := range pi.Types() {
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	for _, name := range typeNames {
		t := pi.Types()[name]
		doc.Types = append(doc.Types, jsonType{Name: t.Name, Domain: t.Domain})
	}
	for _, o := range pi.Objects() {
		jo := jsonObject{ID: o}
		for _, l := range pi.Labels(o) {
			jl := jsonLabel{Label: l, IDs: pi.LCh(o, l)}
			iv := pi.Card(o, l)
			jl.Card = &jsonCard{Min: iv.Min, Max: iv.Max}
			jo.Children = append(jo.Children, jl)
		}
		if w := pi.OPF(o); w != nil {
			for _, e := range w.Entries() {
				jo.OPF = append(jo.OPF, jsonOPF{Set: e.Set, P: e.Prob})
			}
		}
		if t, ok := pi.TypeOf(o); ok {
			jo.Type = t.Name
			if v, okV := pi.DefaultValue(o); okV {
				val := v
				jo.Value = &val
			}
		}
		if v := pi.VPF(o); v != nil {
			for _, e := range v.Entries() {
				jo.VPF = append(jo.VPF, jsonVPF{Value: e.Value, P: e.Prob})
			}
		}
		doc.Objects = append(doc.Objects, jo)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// checkJSONIDs refuses a document naming an object with an id
// checkObjectID refuses.
func checkJSONIDs(doc *jsonDoc) error {
	ids := []string{doc.Root}
	for _, jo := range doc.Objects {
		ids = append(ids, jo.ID)
		for _, jl := range jo.Children {
			ids = append(ids, jl.IDs...)
		}
		for _, e := range jo.OPF {
			ids = append(ids, e.Set...)
		}
	}
	for _, id := range ids {
		if err := checkObjectID(id); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJSON reads an instance from its JSON encoding. The result is
// validated structurally (weak-instance invariants) but not
// probabilistically; call Validate or ValidateLite on the result as needed.
func DecodeJSON(r io.Reader) (*core.ProbInstance, error) {
	var doc jsonDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("codec: decoding JSON: %w", err)
	}
	if doc.Format != FormatJSON {
		return nil, fmt.Errorf("codec: unexpected format %q", doc.Format)
	}
	if doc.Root == "" {
		return nil, fmt.Errorf("codec: missing root")
	}
	if err := checkJSONIDs(&doc); err != nil {
		return nil, err
	}
	pi := core.NewProbInstance(doc.Root)
	for _, t := range doc.Types {
		if err := pi.RegisterType(model.NewType(t.Name, t.Domain...)); err != nil {
			return nil, fmt.Errorf("codec: type %s: %w", t.Name, err)
		}
	}
	for _, jo := range doc.Objects {
		pi.AddObject(jo.ID)
		for _, jl := range jo.Children {
			pi.SetLCh(jo.ID, jl.Label, jl.IDs...)
			if jl.Card != nil {
				pi.SetCard(jo.ID, jl.Label, jl.Card.Min, jl.Card.Max)
			}
		}
		if len(jo.OPF) > 0 {
			w := prob.NewOPF()
			for _, e := range jo.OPF {
				w.Add(sets.NewSet(e.Set...), e.P)
			}
			pi.SetOPF(jo.ID, w)
		}
		if jo.Type != "" {
			if err := pi.SetLeafType(jo.ID, jo.Type); err != nil {
				return nil, fmt.Errorf("codec: object %s: %w", jo.ID, err)
			}
			if jo.Value != nil {
				if err := pi.SetDefaultValue(jo.ID, *jo.Value); err != nil {
					return nil, fmt.Errorf("codec: object %s: %w", jo.ID, err)
				}
			}
		}
		if len(jo.VPF) > 0 {
			v := prob.NewVPF()
			for _, e := range jo.VPF {
				v.Put(e.Value, e.P)
			}
			pi.SetVPF(jo.ID, v)
		}
	}
	if err := pi.WeakInstance.Validate(); err != nil {
		return nil, fmt.Errorf("codec: decoded instance invalid: %w", err)
	}
	return pi, nil
}
