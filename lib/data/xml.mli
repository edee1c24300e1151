(** Parsing and printing of an XML subset.

    Supported: elements, attributes (single- or double-quoted),
    self-closing tags, character data, comments ([<!-- -->], skipped),
    processing instructions and XML declarations (skipped), and the five
    predefined entities.  Not supported (out of scope for the paper's
    examples): DTDs, CDATA sections, namespaces (colons are kept as part
    of names).

    All parsed elements are [Ordered] (XML document order is
    significant); whitespace-only text nodes are dropped unless
    [keep_ws:true]. *)

val parse : ?keep_ws:bool -> string -> (Term.t, string) result
(** Parses a single root element.  Malformed input, a repeated
    attribute included, is an [Error]; it never raises. *)

val parse_exn : ?keep_ws:bool -> string -> Term.t
(** @raise Invalid_argument on parse errors. *)

val parse_html : ?keep_ws:bool -> string -> (Term.t, string) result
(** Tolerant HTML mode for scraping Web pages (the paper's applications
    monitor HTML as well as XML): void elements ([<br>], [<img>], ...)
    need no closing tag or slash; attribute values may be unquoted or
    missing ([<input disabled>]); tag and attribute names are
    lower-cased; a [<!DOCTYPE ...>] prelude is skipped; unclosed [<p>]
    and [<li>] elements are closed by the next opening of the same tag.
    Everything else behaves like {!parse}. *)

val to_string : ?decl:bool -> Term.t -> string
(** Serialises a term as XML.  Scalar leaves become character data;
    [Unordered] elements are serialised with their children in the order
    given (with an [xch:unordered="true"] attribute so that parsing round
    trips the ordering flag).  [decl] (default [false]) prepends an XML
    declaration. *)

val pp : Term.t Fmt.t
(** Indented XML rendering (for humans; not round-trip safe with respect
    to whitespace). *)
