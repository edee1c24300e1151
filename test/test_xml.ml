open Xchange

let term = Alcotest.testable Term.pp Term.equal

let test_parse_basic () =
  let t = Xml.parse_exn "<a k=\"v\"><b>hello</b><c/></a>" in
  Alcotest.(check (option string)) "root" (Some "a") (Term.label t);
  Alcotest.(check (option string)) "attr" (Some "v") (Term.attr "k" t);
  Alcotest.(check int) "children" 2 (List.length (Term.children t))

let test_parse_entities () =
  let t = Xml.parse_exn "<a>x &amp; y &lt;z&gt; &quot;q&quot; &#65;</a>" in
  match Term.children t with
  | [ Term.Text s ] -> Alcotest.(check string) "decoded" "x & y <z> \"q\" A" s
  | _ -> Alcotest.fail "expected one text child"

let test_parse_whitespace () =
  let t = Xml.parse_exn "<a>\n  <b/>\n</a>" in
  Alcotest.(check int) "whitespace dropped" 1 (List.length (Term.children t));
  let t = Xml.parse_exn ~keep_ws:true "<a>\n  <b/>\n</a>" in
  Alcotest.(check int) "whitespace kept" 3 (List.length (Term.children t))

let test_parse_comments_and_pi () =
  let t = Xml.parse_exn "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>" in
  Alcotest.(check int) "comment skipped" 1 (List.length (Term.children t))

let test_parse_errors () =
  let bad s =
    match Xml.parse s with Ok _ -> Alcotest.fail ("accepted: " ^ s) | Error _ -> ()
  in
  bad "<a><b></a>";
  bad "<a>";
  bad "<a></a><b></b>";
  bad "";
  bad "<a foo=bar></a>"

(* a repeated attribute is malformed input: an [Error] naming it, never
   an exception, from either entry point (HTML lower-cases names first) *)
let test_duplicate_attribute () =
  let rejected = function
    | Ok _ -> Alcotest.fail "repeated attribute accepted"
    | Error msg ->
        Alcotest.(check bool) msg true (String.starts_with ~prefix:"duplicate attribute x" msg)
  in
  rejected (Xml.parse {|<a x="1" x="2"/>|});
  rejected (Xml.parse_html {|<a x=1 X="2">t</a>|})

let test_unordered_roundtrip () =
  let t = Term.elem ~ord:Term.Unordered "s" [ Term.text "x" ] in
  let back = Xml.parse_exn (Xml.to_string t) in
  Alcotest.check term "ordering flag survives" t back

let test_escaping () =
  let t = Term.elem "a" ~attrs:[ ("k", "a\"b&c") ] [ Term.text "<tag> & stuff" ] in
  Alcotest.check term "escaped roundtrip" t (Xml.parse_exn (Xml.to_string t))

let test_single_quotes () =
  let t = Xml.parse_exn "<a k='v'/>" in
  Alcotest.(check (option string)) "single-quoted attr" (Some "v") (Term.attr "k" t)

let test_html_mode () =
  let t =
    Result.get_ok
      (Xml.parse_html
         {|<!DOCTYPE html>
           <html>
             <BODY class=main>
               <p>first<p>second
               <ul><li>one<li>two</ul>
               <img src="x.png">
               <input disabled>
               <br>
             </body>
           </html>|})
  in
  Alcotest.(check (option string)) "root lower-cased" (Some "html") (Term.label t);
  let find label = Term.find_all (fun s -> Term.label s = Some label) t in
  Alcotest.(check int) "both paragraphs" 2 (List.length (find "p"));
  Alcotest.(check int) "both list items" 2 (List.length (find "li"));
  Alcotest.(check int) "void img" 1 (List.length (find "img"));
  (match find "body" with
  | [ body ] -> Alcotest.(check (option string)) "unquoted attr" (Some "main") (Term.attr "class" body)
  | _ -> Alcotest.fail "body not found");
  (match find "input" with
  | [ input ] -> Alcotest.(check (option string)) "valueless attr" (Some "") (Term.attr "disabled" input)
  | _ -> Alcotest.fail "input not found");
  (* strict mode still rejects this soup *)
  match Xml.parse "<p>first<p>second</p>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict mode accepted tag soup"

let test_html_unclosed_at_eof () =
  let t = Result.get_ok (Xml.parse_html "<div><span>hi") in
  Alcotest.(check int) "implicitly closed" 1 (List.length (Term.children t))

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string t) = t (modulo leaf text rendering)" ~count:300
    Gen.xml_term_arb (fun t ->
      (* numbers and booleans serialise as text; compare after folding
         scalars to text *)
      let rec textify t =
        match t with
        | Term.Elem e -> Term.Elem { e with Term.children = List.map textify e.Term.children }
        | Term.Text _ -> t
        | Term.Num _ | Term.Bool _ -> Term.Text (Option.get (Term.as_text t))
      in
      (* XML cannot represent: whitespace-only texts (dropped) and
         adjacent scalar siblings (merged into one text node) *)
      let is_scalar = function Term.Elem _ -> false | Term.Text _ | Term.Num _ | Term.Bool _ -> true in
      let representable =
        Term.find_all
          (fun s ->
            (match s with
            | Term.Text x -> String.trim x = ""
            | Term.Num _ | Term.Bool _ | Term.Elem _ -> false)
            ||
            let rec adjacent = function
              | a :: b :: _ when is_scalar a && is_scalar b -> true
              | _ :: rest -> adjacent rest
              | [] -> false
            in
            adjacent (Term.children s))
          t
        = []
      in
      QCheck.assume representable;
      match Xml.parse (Xml.to_string t) with
      | Ok back -> Term.equal (textify (Term.strip_ids t)) back
      | Error _ -> false)

let suite =
  ( "xml",
    [
      Alcotest.test_case "basic parsing" `Quick test_parse_basic;
      Alcotest.test_case "entities" `Quick test_parse_entities;
      Alcotest.test_case "whitespace control" `Quick test_parse_whitespace;
      Alcotest.test_case "comments and declarations skipped" `Quick test_parse_comments_and_pi;
      Alcotest.test_case "malformed inputs rejected" `Quick test_parse_errors;
      Alcotest.test_case "duplicate attribute is an error" `Quick test_duplicate_attribute;
      Alcotest.test_case "unordered flag roundtrips" `Quick test_unordered_roundtrip;
      Alcotest.test_case "escaping roundtrips" `Quick test_escaping;
      Alcotest.test_case "single-quoted attributes" `Quick test_single_quotes;
      Alcotest.test_case "tolerant HTML mode" `Quick test_html_mode;
      Alcotest.test_case "HTML unclosed elements at EOF" `Quick test_html_unclosed_at_eof;
      QCheck_alcotest.to_alcotest prop_roundtrip;
    ] )
