module Circuit = Mm_core.Circuit
module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal
module Rop = Mm_core.Rop
module Engine = Mm_engine.Engine

type origin = Trivial | Atlas | Solver

type repl =
  | R_const of bool
  | R_wire of bool
  | R_circuit of Circuit.t

(* The replacement segment is assembled in the OLD index space, with
   references to its own fresh R-ops encoded as [From_rop (-(1+j))]
   sentinels (j = position within the segment); a final conversion pass
   renumbers everything at once. *)
let sentinel j = Circuit.From_rop (-(1 + j))

let splice (c : Circuit.t) (w : Window.t) (live_in : Circuit.source array)
    (repl : repl) : Circuit.t * int =
  let n_r = Circuit.n_rops c in
  let members = w.Window.members in
  let o = w.Window.live_out in
  let in_window = Hashtbl.create 8 in
  Array.iter (fun m -> Hashtbl.replace in_window m ()) members;
  (* NOR(s,s) inverters surviving outside the window and defined before the
     insertion point, reusable instead of materializing a fresh one; only
     NOR(x,x) is an inverter (NIMP(x,x) is constant 0) *)
  let avail = Hashtbl.create 8 in
  (match c.Circuit.rop_kind with
  | Rop.Nor ->
    for r = 0 to o - 1 do
      if not (Hashtbl.mem in_window r) then begin
        let { Circuit.in1; in2 } = c.Circuit.rops.(r) in
        if in1 = in2 && not (Hashtbl.mem avail in1) then
          Hashtbl.add avail in1 (Circuit.From_rop r)
      end
    done
  | Rop.Nimp -> ());
  let fresh = ref [] and n_fresh = ref 0 in
  let push rop =
    fresh := rop :: !fresh;
    incr n_fresh;
    sentinel (!n_fresh - 1)
  in
  let negated (s : Circuit.source) =
    match s with
    | Circuit.From_literal l -> Circuit.From_literal (Literal.negate l)
    | s -> (
      match Hashtbl.find_opt avail s with
      | Some r -> r
      | None ->
        let r = push { Circuit.in1 = s; in2 = s } in
        Hashtbl.add avail s r;
        r)
  in
  let out_src =
    match repl with
    | R_const b ->
      Circuit.From_literal (if b then Literal.Const1 else Literal.Const0)
    | R_wire false -> live_in.(0)
    | R_wire true -> negated live_in.(0)
    | R_circuit blk ->
      if Array.length blk.Circuit.legs > 0 then
        invalid_arg "Rewrite.splice: replacement block must be 0-leg";
      let local = Array.make (Circuit.n_rops blk) (sentinel 0) in
      let resolve (s : Circuit.source) =
        match s with
        | Circuit.From_literal (Literal.Const0 | Literal.Const1) -> s
        | Circuit.From_literal (Literal.Pos j) -> live_in.(j - 1)
        | Circuit.From_literal (Literal.Neg j) -> negated live_in.(j - 1)
        | Circuit.From_rop i -> local.(i)
        | Circuit.From_leg _ | Circuit.From_vop _ ->
          invalid_arg "Rewrite.splice: replacement block must be 0-leg"
      in
      Array.iteri
        (fun i (r : Circuit.rop) ->
          let a = resolve r.Circuit.in1 in
          let b = resolve r.Circuit.in2 in
          local.(i) <- push { Circuit.in1 = a; in2 = b })
        blk.Circuit.rops;
      resolve blk.Circuit.outputs.(0)
  in
  (* renumbering: surviving old R-op r keeps its relative order, the fresh
     segment occupies the live-out's slot *)
  let remap = Array.make n_r (-1) in
  let next = ref 0 in
  let p_new = ref (-1) in
  for r = 0 to n_r - 1 do
    if r = o then begin
      p_new := !next;
      next := !next + !n_fresh
    end
    else if not (Hashtbl.mem in_window r) then begin
      remap.(r) <- !next;
      incr next
    end
  done;
  let rec conv (s : Circuit.source) =
    match s with
    | Circuit.From_rop r when r < 0 -> Circuit.From_rop (!p_new + (-r - 1))
    | Circuit.From_rop r when Hashtbl.mem in_window r ->
      if r = o then conv out_src
      else invalid_arg "Rewrite.splice: dangling window-internal reference"
    | Circuit.From_rop r -> Circuit.From_rop remap.(r)
    | s -> s
  in
  let rops = Array.make !next { Circuit.in1 = out_src; in2 = out_src } in
  let pos = ref 0 in
  for r = 0 to n_r - 1 do
    if r = o then
      List.iteri
        (fun j (rop : Circuit.rop) ->
          rops.(!pos + j) <-
            { Circuit.in1 = conv rop.Circuit.in1; in2 = conv rop.Circuit.in2 })
        (List.rev !fresh)
    else ();
    if r = o then pos := !pos + !n_fresh
    else if not (Hashtbl.mem in_window r) then begin
      let rop = c.Circuit.rops.(r) in
      rops.(!pos) <-
        { Circuit.in1 = conv rop.Circuit.in1; in2 = conv rop.Circuit.in2 };
      incr pos
    end
  done;
  let outputs = Array.map conv c.Circuit.outputs in
  ( Circuit.make ~arity:c.Circuit.arity ~rop_kind:c.Circuit.rop_kind
      ~legs:c.Circuit.legs ~rops ~outputs (),
    !n_fresh )

let attempt ~probe (c : Circuit.t) (w : Window.t) :
    (Circuit.t * origin) option =
  let fn = Extract.table c w in
  let width = Window.width w in
  let finish repl origin =
    let c', n_new = splice c w fn.Extract.live_in repl in
    if n_new < width then Some (c', origin) else None
  in
  let m = Tt.arity fn.Extract.tt in
  if Tt.is_const fn.Extract.tt then
    finish (R_const (Tt.eval fn.Extract.tt 0)) Trivial
  else if m = 1 then
    (* the only non-constant 1-var functions are x1 and ¬x1 *)
    finish (R_wire (Tt.equal fn.Extract.tt (Tt.nvar 1 1))) Trivial
  else if m > 4 then None
  else
    match probe ~budget_rops:(width - 1) fn.Extract.tt with
    | None -> None
    | Some (p : Engine.probe) ->
      let origin =
        if p.Engine.probe_report.Mm_core.Synth.attempts = [] then Atlas
        else Solver
      in
      finish (R_circuit p.Engine.probe_circuit) origin
