package template

import (
	"encoding/json"
	"fmt"
)

// jsonNode is the serialized form of a template tree. Kind is one of
// "field", "lit", "struct", "array".
type jsonNode struct {
	Kind     string     `json:"kind"`
	Text     string     `json:"text,omitempty"`
	Sep      string     `json:"sep,omitempty"`
	Term     string     `json:"term,omitempty"`
	Children []jsonNode `json:"children,omitempty"`
}

// MarshalJSON serializes the template tree; it round-trips through
// UnmarshalNode. Templates serialize structurally (not via the display
// string, which is ambiguous for literal parentheses).
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSON(n))
}

func toJSON(n *Node) jsonNode {
	switch n.Kind {
	case KField:
		return jsonNode{Kind: "field"}
	case KLiteral:
		return jsonNode{Kind: "lit", Text: n.Lit}
	case KStruct:
		out := jsonNode{Kind: "struct"}
		for _, c := range n.Children {
			out.Children = append(out.Children, toJSON(c))
		}
		return out
	case KArray:
		out := jsonNode{Kind: "array", Sep: string(n.Sep), Term: string(n.Term)}
		for _, c := range n.Children {
			out.Children = append(out.Children, toJSON(c))
		}
		return out
	}
	return jsonNode{}
}

// UnmarshalNode parses a template serialized by MarshalJSON.
func UnmarshalNode(data []byte) (*Node, error) {
	n := new(Node)
	if err := n.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return n, nil
}

// UnmarshalJSON parses a template serialized by MarshalJSON, so a
// template list decodes as []*Node. (A JSON null element decodes as a
// nil *Node without reaching here.)
func (n *Node) UnmarshalJSON(data []byte) error {
	var jn jsonNode
	if err := json.Unmarshal(data, &jn); err != nil {
		return fmt.Errorf("template: %w", err)
	}
	parsed, err := fromJSON(jn)
	if err != nil {
		return err
	}
	*n = *parsed
	return nil
}

func fromJSON(jn jsonNode) (*Node, error) {
	switch jn.Kind {
	case "field":
		return Field(), nil
	case "lit":
		if jn.Text == "" {
			return nil, fmt.Errorf("template: empty literal")
		}
		return Lit(jn.Text), nil
	case "struct":
		children := make([]*Node, 0, len(jn.Children))
		for _, c := range jn.Children {
			n, err := fromJSON(c)
			if err != nil {
				return nil, err
			}
			children = append(children, n)
		}
		return Struct(children...), nil
	case "array":
		if len(jn.Sep) != 1 || len(jn.Term) != 1 {
			return nil, fmt.Errorf("template: array sep/term must be single characters")
		}
		if jn.Sep == jn.Term {
			return nil, fmt.Errorf("template: array sep and term must differ")
		}
		body := make([]*Node, 0, len(jn.Children))
		for _, c := range jn.Children {
			n, err := fromJSON(c)
			if err != nil {
				return nil, err
			}
			body = append(body, n)
		}
		// A body of empty structs normalizes to none, which would save
		// as an empty body.
		if len(normalizeSeq(body)) == 0 {
			return nil, fmt.Errorf("template: array with empty body")
		}
		return Array(body, jn.Sep[0], jn.Term[0]), nil
	default:
		return nil, fmt.Errorf("template: unknown node kind %q", jn.Kind)
	}
}
