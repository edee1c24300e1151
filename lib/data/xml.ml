let unordered_attr = "xch:unordered"

exception Error of string
exception Html_value of string

type mode = Strict | Html

type state = { src : string; mutable pos : int; mode : mode }

let fail st msg = raise (Error (Fmt.str "%s at offset %d" msg st.pos))
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let skip st s = if looking_at st s then st.pos <- st.pos + String.length s else fail st ("expected " ^ s)

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let skip_ws st = while (not (eof st)) && is_ws (peek st) do advance st done

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let name st =
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do advance st done;
  if st.pos = start then fail st "expected a name";
  let n = String.sub st.src start (st.pos - start) in
  match st.mode with Strict -> n | Html -> String.lowercase_ascii n

(* HTML elements that never have content *)
let html_void =
  [ "area"; "base"; "br"; "col"; "embed"; "hr"; "img"; "input"; "link"; "meta";
    "source"; "track"; "wbr" ]

(* elements implicitly closed by the next sibling of the same tag *)
let html_self_nesting = [ "p"; "li"; "tr"; "td"; "th"; "option" ]

let entity st =
  skip st "&";
  let start = st.pos in
  while (not (eof st)) && peek st <> ';' do advance st done;
  if eof st then fail st "unterminated entity";
  let e = String.sub st.src start (st.pos - start) in
  advance st;
  match e with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
      if String.length e > 1 && e.[0] = '#' then
        let code =
          if e.[1] = 'x' || e.[1] = 'X' then int_of_string_opt ("0x" ^ String.sub e 2 (String.length e - 2))
          else int_of_string_opt (String.sub e 1 (String.length e - 1))
        in
        match code with
        | Some c when c >= 0 && c < 128 -> String.make 1 (Char.chr c)
        | Some _ -> "?" (* non-ASCII code points degraded; fine for our use *)
        | None -> fail st ("bad character reference &" ^ e ^ ";")
      else fail st ("unknown entity &" ^ e ^ ";")

let attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then begin
    match st.mode with
    | Strict -> fail st "expected attribute value"
    | Html ->
        (* unquoted value: read to whitespace or tag end *)
        let buf = Buffer.create 8 in
        while (not (eof st)) && not (is_ws (peek st) || peek st = '>' || peek st = '/') do
          Buffer.add_char buf (peek st);
          advance st
        done;
        raise (Html_value (Buffer.contents buf))
  end;
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then (Buffer.add_string buf (entity st); go ())
    else (Buffer.add_char buf (peek st); advance st; go ())
  in
  go ();
  Buffer.contents buf

let rec skip_misc st =
  skip_ws st;
  if looking_at st "<!" && (not (looking_at st "<!--")) && st.mode = Html then begin
    (* doctype and friends *)
    while (not (eof st)) && peek st <> '>' do advance st done;
    if not (eof st) then advance st;
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    st.pos <- st.pos + 4;
    let rec find () =
      if eof st then fail st "unterminated comment"
      else if looking_at st "-->" then st.pos <- st.pos + 3
      else (advance st; find ())
    in
    find (); skip_misc st
  end
  else if looking_at st "<?" then begin
    let rec find () =
      if eof st then fail st "unterminated processing instruction"
      else if looking_at st "?>" then st.pos <- st.pos + 2
      else (advance st; find ())
    in
    find (); skip_misc st
  end

let rec element ~keep_ws st =
  skip st "<";
  let tag = name st in
  let rec attrs acc =
    skip_ws st;
    if looking_at st "/>" || looking_at st ">" then List.rev acc
    else
      let k = name st in
      (* [Term.elem] would raise on the repeat: reject it as malformed input *)
      if List.mem_assoc k acc then fail st (Fmt.str "duplicate attribute %s" k);
      skip_ws st;
      if peek st <> '=' then begin
        (* valueless attribute (HTML only) *)
        match st.mode with
        | Html -> attrs ((k, "") :: acc)
        | Strict ->
            skip st "=";
            assert false
      end
      else begin
        skip st "=";
        skip_ws st;
        let v = try attr_value st with Html_value v -> v in
        attrs ((k, v) :: acc)
      end
  in
  let attrs = attrs [] in
  let ord =
    if List.assoc_opt unordered_attr attrs = Some "true" then Term.Unordered else Term.Ordered
  in
  let attrs = List.remove_assoc unordered_attr attrs in
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Term.elem ~ord ~attrs tag []
  end
  else if st.mode = Html && List.mem tag html_void then begin
    skip st ">";
    Term.elem ~ord ~attrs tag []
  end
  else begin
    skip st ">";
    let children = content ~keep_ws ~enclosing:tag st [] in
    (* implicit closure: the matching </tag> may be missing in HTML *)
    if looking_at st "</" then begin
      let save = st.pos in
      skip st "</";
      let closing = name st in
      if String.equal closing tag then begin
        skip_ws st;
        skip st ">"
      end
      else if st.mode = Html then st.pos <- save
      else fail st (Fmt.str "mismatched closing tag </%s> for <%s>" closing tag)
    end
    else if st.mode = Strict then skip st "</";
    Term.elem ~ord ~attrs tag children
  end

and content ~keep_ws ?enclosing st acc =
  if eof st then
    if st.mode = Html then List.rev acc else fail st "unexpected end of input"
  else if looking_at st "</" then List.rev acc
  else if looking_at st "<!--" || looking_at st "<?" then
    (skip_misc st; content ~keep_ws ?enclosing st acc)
  else if peek st = '<' then begin
    (* HTML: <p>...<p> closes the previous p *)
    match (st.mode, enclosing) with
    | Html, Some tag when List.mem tag html_self_nesting -> (
        let save = st.pos in
        advance st;
        match name st with
        | next when String.equal next tag ->
            st.pos <- save;
            List.rev acc
        | _ | (exception Error _) ->
            st.pos <- save;
            content ~keep_ws ?enclosing st (element ~keep_ws st :: acc))
    | (Html | Strict), _ -> content ~keep_ws ?enclosing st (element ~keep_ws st :: acc)
  end
  else begin
    let buf = Buffer.create 16 in
    while (not (eof st)) && peek st <> '<' do
      if peek st = '&' then Buffer.add_string buf (entity st)
      else (Buffer.add_char buf (peek st); advance st)
    done;
    let s = Buffer.contents buf in
    let keep = keep_ws || String.exists (fun c -> not (is_ws c)) s in
    content ~keep_ws ?enclosing st (if keep then Term.Text s :: acc else acc)
  end

let parse_with mode ?(keep_ws = false) src =
  let st = { src; pos = 0; mode } in
  try
    skip_misc st;
    let t = element ~keep_ws st in
    skip_misc st;
    if not (eof st) then fail st "trailing content after root element";
    Ok t
  with Error msg -> Result.Error msg

let parse ?keep_ws src = parse_with Strict ?keep_ws src
let parse_html ?keep_ws src = parse_with Html ?keep_ws src

let parse_exn ?keep_ws src =
  match parse ?keep_ws src with Ok t -> t | Error msg -> invalid_arg ("Xml.parse: " ^ msg)

let escape_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_attrs buf attrs ord =
  let attrs =
    match ord with
    | Term.Unordered -> attrs @ [ (unordered_attr, "true") ]
    | Term.Ordered -> attrs
  in
  List.iter (fun (k, v) -> Buffer.add_string buf (Fmt.str " %s=\"%s\"" k (escape_attr v))) attrs

let to_string ?(decl = false) t =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\"?>";
  let rec go = function
    | Term.Text s -> Buffer.add_string buf (escape_text s)
    | Term.Num _ | Term.Bool _ as leaf ->
        Buffer.add_string buf (Option.value ~default:"" (Term.as_text leaf))
    | Term.Elem e ->
        Buffer.add_char buf '<';
        Buffer.add_string buf e.Term.label;
        render_attrs buf e.Term.attrs e.Term.ord;
        if e.Term.children = [] then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          List.iter go e.Term.children;
          Buffer.add_string buf (Fmt.str "</%s>" e.Term.label)
        end
  in
  go t;
  Buffer.contents buf

let rec pp ppf t =
  match t with
  | Term.Text s -> Fmt.string ppf (escape_text s)
  | Term.Num _ | Term.Bool _ -> Fmt.string ppf (Option.value ~default:"" (Term.as_text t))
  | Term.Elem e ->
      let buf = Buffer.create 32 in
      render_attrs buf e.Term.attrs e.Term.ord;
      if e.Term.children = [] then Fmt.pf ppf "<%s%s/>" e.Term.label (Buffer.contents buf)
      else
        Fmt.pf ppf "@[<v 2><%s%s>@,%a@]@,</%s>" e.Term.label (Buffer.contents buf)
          Fmt.(list ~sep:cut pp)
          e.Term.children e.Term.label
