(* The [market] workload: four shops, two warehouses and two banks on
   the examples/marketplace.ml pattern.

   Orders come from a seeded Zipf customer stream.  A shop checks the
   customer against its register through a deductive view: gold
   customers ship at once; everyone else is invoiced, and the order is
   shipped when its payment arrives within the window (a keyed [seq]
   join) or cancelled by an engine deadline when it does not (an
   [absent] query).  Shipping raises a pick at the shop's warehouse,
   whose stock delete triggers an update-driven restock rule — a local
   cascade.  The generator decides each order's payment plan, so it
   knows every count in closed form.

   Gold customers are the head of each shop's Zipf ranking that places
   half of all orders: examples/marketplace.ml orders once as a gold
   customer and once as a basic one, and gold status goes to the
   heaviest buyers.  Under Zipf(1) over 5000 customers that head is
   about 1% of the register.

   One order enters per tick (payments the generator scheduled for that
   instant ride along), so a tick's wall time is one order's
   event-to-reaction latency. *)

open Xchange
open Common

type size = { customers : int; orders_per_tick : int; products : int }

let full = { customers = 5000; orders_per_tick = 1; products = 64 }

(* tiny instances inject several orders at one instant, so the tests
   also cover stimuli that share a tick *)
let tiny = { customers = 40; orders_per_tick = 3; products = 6 }

let shops = 4
let tick_ms = Clock.seconds 1

(* payment windows, in ticks: inside ones land well before the deadline
   (window + link latencies), late ones well after it *)
let window_ticks = 8
let in_window_delay = (1, 4)
let late_delay = (10, 13)
let gold_order_share = 0.5
let shop i = Printf.sprintf "shop%d.example" i
let warehouse i = Printf.sprintf "wh%d.example" (i mod 2)
let bank i = Printf.sprintf "bank%d.example" (i mod 2)
let customer ~shop:s j = Printf.sprintf "c%d_%d" s j
let product k = Printf.sprintf "p%d" k

let shop_program i =
  Printf.sprintf
    {|
ruleset shop {
  view gold gold[all name[$N]]
    from in doc("/customers") customers{{customer{{name[var N], status["gold"]}}}}

  rule gold-order:
    on order{{oid[var O], item[var Item], customer[var Who]}}
    if in view(gold) gold{{name[var Who]}}
    do raise to "%s" pick pick[oid[$O], item[$Item]]

  rule basic-order:
    on order{{oid[var O], item[var Item], customer[var Who]}}
    if not(in view(gold) gold{{name[var Who]}})
    do { insert into "/open" o[oid[$O], customer[$Who]];
         raise to "%s" invoice invoice[oid[$O], customer[$Who], shop["%s"]] }

  rule paid-order(consume):
    on seq{order{{oid[var O], item[var Item], customer[var Who]}},
           payment{{oid[var O], customer[var Who]}}} within %d ms
    do { delete from "/open" matching o{{oid[var O]}};
         raise to "%s" pick pick[oid[$O], item[$Item]] }

  rule unpaid-order(consume):
    on absent{order{{oid[var O], item[var Item], customer[var Who]}},
              payment{{oid[var O]}}} within %d ms
    if not(in view(gold) gold{{name[var Who]}})
    do delete from "/open" matching o{{oid[var O]}}
}
|}
    (warehouse i) (bank i) (shop i)
    (window_ticks * tick_ms)
    (warehouse i)
    (window_ticks * tick_ms)

let warehouse_program =
  {|
ruleset warehouse {
  rule pick:
    on pick{{oid[var O], item[var Item]}}
    do { delete from "/stock" matching unit{{item[var Item]}};
         insert into "/picked" p[item[$Item]] }

  rule restock:
    on update{{@doc = "/stock"}}
    if and(in doc("/picked") picked{{p{{item[var I]}}}},
           not(in doc("/stock") stock{{unit{{item[var I]}}}}))
    do { insert into "/stock" unit[item[$I]];
         delete from "/picked" matching p{{item[var I]}} }
}
|}

let bank_program =
  {|
ruleset bank {
  rule invoice:
    on invoice{{oid[var O]}}
    do nop

  rule pay:
    on pay{{oid[var O], customer[var Who], shop[var S]}}
    do raise to $S payment payment[oid[$O], customer[$Who]]
}
|}

let unordered label children = Term.elem ~ord:Term.Unordered label children
let leaf label v = Term.elem label [ Term.text v ]

(* Each shop's customers by popularity rank: rank -> customer. *)
let ranking ~seed size s = permutation (rng ~seed ~salt:11 (200 + s)) size.customers

(* How many of each shop's top-ranked customers are gold: the fewest
   whose Zipf mass reaches [gold_order_share]. *)
let gold_head size =
  let z = zipf ~s:1.0 size.customers in
  let k = ref 1 in
  while z.(!k - 1) < gold_order_share do
    incr k
  done;
  !k

(* Which customers are gold, a pure function of the seed. *)
let gold_table ~seed size =
  Array.init shops (fun s ->
      let who = ranking ~seed size s in
      let gold = Array.make size.customers false in
      for r = 0 to gold_head size - 1 do
        gold.(who.(r)) <- true
      done;
      gold)

let hosts ~seed size =
  let gold = gold_table ~seed size in
  let register s =
    unordered "customers"
      (List.init size.customers (fun j ->
           Term.elem "customer"
             [ leaf "name" (customer ~shop:s j); leaf "status" (if gold.(s).(j) then "gold" else "basic") ]))
  in
  let shops =
    List.init shops (fun s ->
        {
          host = shop s;
          ruleset = (fun () -> parse (shop_program s));
          docs = [ ("/customers", register s); ("/open", unordered "open" []) ];
          registry = false;
        })
  in
  let stock () =
    unordered "stock" (List.init size.products (fun k -> Term.elem "unit" [ leaf "item" (product k) ]))
  in
  let warehouses =
    List.init 2 (fun w ->
        {
          host = warehouse w;
          ruleset = (fun () -> parse warehouse_program);
          docs = [ ("/stock", stock ()); ("/picked", unordered "picked" []) ];
          registry = false;
        })
  in
  let banks =
    List.init 2 (fun b ->
        { host = bank b; ruleset = (fun () -> parse bank_program); docs = []; registry = false })
  in
  shops @ warehouses @ banks

type counts = {
  mutable orders : int;
  mutable gold : int;
  mutable paid : int;  (** paid inside the window: shipped by the join *)
  mutable late : int;  (** paid after the deadline: cancelled, payment ignored *)
  mutable cross : int;  (** host-to-host messages the plans imply *)
}

let gen ~seed size episode =
  let gold = gold_table ~seed size in
  let zipf = zipf ~s:1.0 size.customers in
  let who = Array.init shops (ranking ~seed size) in
  let due : (int, stimulus list) Hashtbl.t = Hashtbl.create 64 in
  let c = { orders = 0; gold = 0; paid = 0; late = 0; cross = 0 } in
  let tick = ref 0 in
  let schedule k s = Hashtbl.replace due k (s :: Option.value ~default:[] (Hashtbl.find_opt due k)) in
  let next_tick ~drain =
    let k = !tick in
    incr tick;
    let payments = List.rev (Option.value ~default:[] (Hashtbl.find_opt due k)) in
    Hashtbl.remove due k;
    if drain then payments
    else begin
      let st = tick_rng ~seed ~salt:11 ~episode k in
      let orders =
        List.init size.orders_per_tick (fun i ->
            let s = Random.State.int st shops in
            let j = who.(s).(draw zipf st) in
            let oid = Printf.sprintf "o%d_%d" k i and who_ = customer ~shop:s j in
            let item = product (Random.State.int st size.products) in
            c.orders <- c.orders + 1;
            let pay delay =
              schedule (k + delay)
                {
                  to_ = bank s;
                  label = "pay";
                  sender = "external";
                  payload = Term.elem "pay" [ leaf "oid" oid; leaf "customer" who_; leaf "shop" (shop s) ];
                }
            in
            let between (lo, hi) = lo + Random.State.int st (hi - lo + 1) in
            let u = Random.State.float st 1. in
            if gold.(s).(j) then begin
              c.gold <- c.gold + 1;
              c.cross <- c.cross + 1 (* pick *)
            end
            else if u < 0.6 then begin
              c.paid <- c.paid + 1;
              c.cross <- c.cross + 3 (* invoice, payment, pick *);
              pay (between in_window_delay)
            end
            else if u < 0.8 then begin
              c.late <- c.late + 1;
              c.cross <- c.cross + 2 (* invoice, payment *);
              pay (between late_delay)
            end
            else c.cross <- c.cross + 1 (* invoice *);
            {
              to_ = shop s;
              label = "order";
              sender = "external";
              payload = Term.elem "order" [ leaf "oid" oid; leaf "item" item; leaf "customer" who_ ];
            })
      in
      payments @ orders
    end
  in
  let expected () =
    let basic = c.orders - c.gold in
    let shipped = c.gold + c.paid in
    [
      ("gold-order", c.gold);
      ("basic-order", basic);
      ("invoice", basic);
      ("paid-order", c.paid);
      ("unpaid-order", basic - c.paid);
      ("pay", c.paid + c.late);
      ("pick", shipped);
      ("restock", shipped);
      ("cross_host_messages", c.cross);
    ]
  in
  let characterise () =
    let o = float_of_int c.orders in
    [
      ("orders", o);
      ("paid_share_of_orders", ratio (float_of_int c.paid) o);
      ("unpaid_share_of_orders", ratio (float_of_int (c.orders - c.gold - c.paid)) o);
      ("gold_share_of_orders", ratio (float_of_int c.gold) o);
      ("gold_share_of_registers", iratio (gold_head size) size.customers);
      ("cross_host_messages_per_order", ratio (float_of_int c.cross) o);
    ]
  in
  { next_tick; expected; characterise }

let observe net ~sent =
  let nodes = nodes_of net in
  let f = rule_firings nodes in
  let cross = List.fold_left (fun acc h -> acc + sent h) 0 (Network.hosts net) in
  List.map (fun r -> (r, f r))
    [ "gold-order"; "basic-order"; "invoice"; "paid-order"; "unpaid-order"; "pay"; "pick"; "restock" ]
  @ [ ("cross_host_messages", cross) ]

(* The traced run replays market on two domains, so the Partition layer
   is measured (and checked bit-identical) on a sequential workload. *)
let make ?(domains = 1) ~seed size =
  {
    domains;
    capture_domains = 2;
    tick_ms;
    warmup_ticks = 20;
    drain_ticks = snd late_delay + 1;
    (* about 2 s of orders per network; set-up is ~0.1 s *)
    episode_ticks = 500;
    hosts = hosts ~seed size;
    gen = gen ~seed size;
    observe;
  }
