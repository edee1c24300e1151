(* Subscription index: a label-anchored discrimination trie over a
   dynamic set of compiled query plans.  See sub_index.mli for the
   layout; the invariant everything below maintains is that every live
   registration sits in exactly one bucket, addressable from its shape
   alone — so removal is O(1) bucket surgery and lookup never sees the
   same entry twice. *)

open Xchange_data
open Xchange_obs

(* ---- required-presence analysis ------------------------------------- *)

(* What must any term matched by [q] (rooted, in the sense of
   Plan.matches) contain?  Sound necessary conditions only:

   - [El {label = L l}] consumes an element labelled [l]; its required
     ([Pos]) children each consume one distinct data child in every
     matching mode (the same invariant Plan's per-element fingerprints
     rest on), so sibling requirements add as multisets.
   - [Leaf (Text_is s)] consumes a scalar whose [Term.as_text] is [s].
     [Num_is]/[Bool_is] are NOT collected: [Term.as_num] parses textual
     leaves, so [Num_is 5.] also matches [Text "5."] and a numeric key
     would unsoundly refute it.
   - [Desc q] matches [q] somewhere inside the term, so [q]'s
     requirements still appear within it (at unknown depth — which is
     fine, the lookup side counts the whole term).
   - [Var], [Leaf_any], [Regex], attributes, [Opt] and [Without]
     children, label variables/wildcards: no requirement. *)

type shape = {
  plan : Plan.t;
  root : string option;  (* exact element label demanded at the term root *)
  scalar_only : bool;  (* the term root must be a scalar leaf *)
  labels : (string * int) list;  (* required element-label multiset, sorted *)
  leaves : (string * int) list;  (* required leaf-text multiset, sorted *)
  pivot : string option;  (* first required leaf text = trie discriminator *)
}

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let required q =
  let labels = Hashtbl.create 8 and leaves = Hashtbl.create 8 in
  let rec go q =
    match q with
    | Qterm.Var _ | Qterm.Leaf (Qterm.Leaf_any | Qterm.Num_is _ | Qterm.Bool_is _ | Qterm.Regex _)
      ->
        ()
    | Qterm.Leaf (Qterm.Text_is s) -> bump leaves s
    | Qterm.As (_, q) | Qterm.Desc q -> go q
    | Qterm.El e ->
        (match e.label with Qterm.L l -> bump labels l | Qterm.L_var _ | Qterm.L_any -> ());
        List.iter
          (function Qterm.Pos q -> go q | Qterm.Without _ | Qterm.Opt _ -> ())
          e.children
  in
  go q;
  let dump tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (dump labels, dump leaves)

(* Root constraints hold only when the query (through [As] wrappers, but
   not through [Desc], which relocates the match) pins the root. *)
let rec root_info q =
  match q with
  | Qterm.As (_, q) -> root_info q
  | Qterm.El { label = Qterm.L l; _ } -> (Some l, false)
  | Qterm.Leaf _ -> (None, true)
  | Qterm.Var _ | Qterm.El _ | Qterm.Desc _ -> (None, false)

let analyse q =
  let labels, leaves = required q in
  let root, scalar_only = root_info q in
  {
    plan = Plan.compile q;
    root;
    scalar_only;
    labels;
    leaves;
    pivot = (match leaves with (s, _) :: _ -> Some s | [] -> None);
  }

(* Analyses deduped per query term.  Hashed through the canonical
   digest: the polymorphic hash stops after 10 meaningful words, before
   any string inside a query, so queries would share a handful of
   buckets.  Equality stays structural, so a digest collision never
   shares a plan. *)
module Shapes = Hashtbl.Make (struct
  type t = Qterm.t

  let equal = ( = )
  let hash q = Hashtbl.hash (Qterm.digest q)
end)

(* ---- trie ------------------------------------------------------------ *)

type 'a entry = { id : int; payload : 'a; elabel : string option; shape : shape }

type 'a bucket = (int, 'a entry) Hashtbl.t

(* per root-label (or any-root / scalar-root) *)
type 'a branch = {
  by_pivot : (string, 'a bucket) Hashtbl.t;
  unpivoted : 'a bucket;  (* entries demanding no leaf text *)
}

(* per event-label (or unlabelled) *)
type 'a node = {
  by_root : (string, 'a branch) Hashtbl.t;
  any_root : 'a branch;  (* entries accepting any root element or leaf *)
  scalar_root : 'a branch;  (* entries demanding a scalar root *)
}

type 'a t = {
  by_elabel : (string, 'a node) Hashtbl.t;
  any_elabel : 'a node;
  entries : (int, 'a entry) Hashtbl.t;
  shapes : shape Shapes.t;
  mutable next_id : int;
  registry : Obs.Metrics.t;
  c_reg : Obs.Metrics.Counter.t;
  c_rem : Obs.Metrics.Counter.t;
  c_lookup : Obs.Metrics.Counter.t;
  c_cand : Obs.Metrics.Counter.t;
  c_refuted : Obs.Metrics.Counter.t;
  c_confirmed : Obs.Metrics.Counter.t;
}

let new_branch () = { by_pivot = Hashtbl.create 4; unpivoted = Hashtbl.create 4 }

let new_node () =
  { by_root = Hashtbl.create 8; any_root = new_branch (); scalar_root = new_branch () }

let create ?metrics () =
  let registry = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      by_elabel = Hashtbl.create 16;
      any_elabel = new_node ();
      entries = Hashtbl.create 64;
      shapes = Shapes.create 64;
      next_id = 0;
      registry;
      c_reg = Obs.Metrics.counter registry "subindex.registrations";
      c_rem = Obs.Metrics.counter registry "subindex.removals";
      c_lookup = Obs.Metrics.counter registry "subindex.lookups";
      c_cand = Obs.Metrics.counter registry "subindex.candidates";
      c_refuted = Obs.Metrics.counter registry "subindex.refuted";
      c_confirmed = Obs.Metrics.counter registry "subindex.confirmed";
    }
  in
  Obs.Metrics.gauge_fn registry "subindex.entries" (fun () ->
      float_of_int (Hashtbl.length t.entries));
  t

let size t = Hashtbl.length t.entries

let branch_nodes b = 1 + Hashtbl.length b.by_pivot + 1 (* buckets incl. unpivoted *)

let node_nodes n =
  1 + branch_nodes n.any_root + branch_nodes n.scalar_root
  + Hashtbl.fold (fun _ b acc -> acc + branch_nodes b) n.by_root 0

let trie_nodes t =
  node_nodes t.any_elabel + Hashtbl.fold (fun _ n acc -> acc + node_nodes n) t.by_elabel 0

(* ---- registration / removal ------------------------------------------ *)

let node_of t elabel ~create =
  match elabel with
  | None -> Some t.any_elabel
  | Some l -> (
      match Hashtbl.find_opt t.by_elabel l with
      | Some n -> Some n
      | None ->
          if create then (
            let n = new_node () in
            Hashtbl.replace t.by_elabel l n;
            Some n)
          else None)

let branch_of node shape ~create =
  if shape.scalar_only then Some node.scalar_root
  else
    match shape.root with
    | None -> Some node.any_root
    | Some l -> (
        match Hashtbl.find_opt node.by_root l with
        | Some b -> Some b
        | None ->
            if create then (
              let b = new_branch () in
              Hashtbl.replace node.by_root l b;
              Some b)
            else None)

let bucket_of branch shape ~create =
  match shape.pivot with
  | None -> Some branch.unpivoted
  | Some s -> (
      match Hashtbl.find_opt branch.by_pivot s with
      | Some b -> Some b
      | None ->
          if create then (
            let b = Hashtbl.create 4 in
            Hashtbl.replace branch.by_pivot s b;
            Some b)
          else None)

let register t ?label q payload =
  let shape =
    match Shapes.find_opt t.shapes q with
    | Some s -> s
    | None ->
        let s = analyse q in
        Shapes.replace t.shapes q s;
        s
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let entry = { id; payload; elabel = label; shape } in
  let node = Option.get (node_of t label ~create:true) in
  let branch = Option.get (branch_of node shape ~create:true) in
  let bucket = Option.get (bucket_of branch shape ~create:true) in
  Hashtbl.replace bucket id entry;
  Hashtbl.replace t.entries id entry;
  Obs.Metrics.Counter.incr t.c_reg;
  id

let branch_empty b = Hashtbl.length b.by_pivot = 0 && Hashtbl.length b.unpivoted = 0

let node_empty n =
  Hashtbl.length n.by_root = 0 && branch_empty n.any_root && branch_empty n.scalar_root

let remove t id =
  match Hashtbl.find_opt t.entries id with
  | None -> false
  | Some entry ->
      Hashtbl.remove t.entries id;
      (match node_of t entry.elabel ~create:false with
      | None -> ()
      | Some node -> (
          match branch_of node entry.shape ~create:false with
          | None -> ()
          | Some branch ->
              (match bucket_of branch entry.shape ~create:false with
              | None -> ()
              | Some bucket -> (
                  Hashtbl.remove bucket id;
                  (* shed empty structure so churn does not grow the trie *)
                  match entry.shape.pivot with
                  | Some s when Hashtbl.length bucket = 0 ->
                      Hashtbl.remove branch.by_pivot s
                  | _ -> ()));
              (match entry.shape.root with
              | Some l when (not entry.shape.scalar_only) && branch_empty branch ->
                  Hashtbl.remove node.by_root l
              | _ -> ());
              (match entry.elabel with
              | Some l when node_empty node -> Hashtbl.remove t.by_elabel l
              | _ -> ())));
      Obs.Metrics.Counter.incr t.c_rem;
      true

(* ---- lookup ---------------------------------------------------------- *)

(* One traversal of the published term: element-label counts and
   scalar-leaf-text counts — the term-side halves of the fingerprint. *)
let term_counts term =
  let labels = Hashtbl.create 16 and leaves = Hashtbl.create 16 in
  let rec go t =
    match t with
    | Term.Elem e ->
        bump labels e.label;
        List.iter go e.children
    | t -> ( match Term.as_text t with Some s -> bump leaves s | None -> ())
  in
  go term;
  (labels, leaves)

let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

let fp_ok shape ~root_label ~is_elem labels leaves =
  (match shape.root with Some l -> is_elem && String.equal l root_label | None -> true)
  && ((not shape.scalar_only) || not is_elem)
  && List.for_all (fun (l, n) -> count labels l >= n) shape.labels
  && List.for_all (fun (s, n) -> count leaves s >= n) shape.leaves

(* Every entry lives in exactly one bucket and the buckets visited below
   are pairwise disjoint, so [fold] sees each candidate at most once. *)
let fold_candidates t ?label term f acc =
  Obs.Metrics.Counter.incr t.c_lookup;
  let labels, leaves = term_counts term in
  let root_label, is_elem =
    match term with Term.Elem e -> (e.label, true) | _ -> ("", false)
  in
  let refuted = ref 0 in
  let scan_bucket acc bucket =
    Hashtbl.fold
      (fun _ entry acc ->
        if fp_ok entry.shape ~root_label ~is_elem labels leaves then f acc entry
        else (
          incr refuted;
          acc))
      bucket acc
  in
  let scan_branch acc branch =
    let acc = scan_bucket acc branch.unpivoted in
    Hashtbl.fold
      (fun s _ acc ->
        match Hashtbl.find_opt branch.by_pivot s with
        | Some bucket -> scan_bucket acc bucket
        | None -> acc)
      leaves acc
  in
  let scan_node acc node =
    let acc = scan_branch acc node.any_root in
    if is_elem then
      match Hashtbl.find_opt node.by_root root_label with
      | Some branch -> scan_branch acc branch
      | None -> acc
    else scan_branch acc node.scalar_root
  in
  let acc = scan_node acc t.any_elabel in
  let acc =
    match label with
    | None -> acc
    | Some l -> (
        match Hashtbl.find_opt t.by_elabel l with
        | Some node -> scan_node acc node
        | None -> acc)
  in
  Obs.Metrics.Counter.incr t.c_refuted ~by:!refuted;
  acc

let by_id (i, _) (j, _) = Int.compare i j

let lookup t ?label term =
  let cands =
    fold_candidates t ?label term (fun acc e -> (e.id, e.payload) :: acc) []
  in
  Obs.Metrics.Counter.incr t.c_cand ~by:(List.length cands);
  List.sort by_id cands

let matching t ?label ?seed term =
  let cands = ref 0 in
  let confirmed =
    fold_candidates t ?label term
      (fun acc e ->
        incr cands;
        match Plan.matches ?seed e.shape.plan term with
        | [] -> acc
        | answers -> (e.id, e.payload, answers) :: acc)
      []
  in
  Obs.Metrics.Counter.incr t.c_cand ~by:!cands;
  Obs.Metrics.Counter.incr t.c_confirmed ~by:(List.length confirmed);
  List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) confirmed

(* ---- stats ----------------------------------------------------------- *)

type stats = {
  registrations : int;
  removals : int;
  lookups : int;
  candidates : int;
  refuted : int;
  confirmed : int;
  entries : int;
  nodes : int;
}

let stats t =
  {
    registrations = Obs.Metrics.Counter.value t.c_reg;
    removals = Obs.Metrics.Counter.value t.c_rem;
    lookups = Obs.Metrics.Counter.value t.c_lookup;
    candidates = Obs.Metrics.Counter.value t.c_cand;
    refuted = Obs.Metrics.Counter.value t.c_refuted;
    confirmed = Obs.Metrics.Counter.value t.c_confirmed;
    entries = size t;
    nodes = trie_nodes t;
  }

let metrics t = t.registry
