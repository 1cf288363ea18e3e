module Circuit = Mm_core.Circuit
module Literal = Mm_boolfun.Literal

type t = {
  members : int array;
  live_in : Circuit.source array;
  live_out : int;
}

let width w = Array.length w.members
let lo w = w.members.(0)

let source_key (s : Circuit.source) =
  match s with
  | Circuit.From_literal (Literal.Neg i) -> Circuit.From_literal (Literal.Pos i)
  | s -> s

(* window geometry: at most [max_width] member R-ops (a replacement gets
   [max_width - 1] R-ops of budget) and [max_live] live-ins; windows whose
   projected support exceeds 4 are skipped by the rewriter anyway *)
let max_width = 6
let max_live = 6

(* distinct external signals read by [members], first-use order; None when
   the count leaves [1 .. max_live] *)
let live_ins (c : Circuit.t) (members : int array) =
  let inside = Hashtbl.create 8 in
  Array.iter (fun m -> Hashtbl.replace inside m ()) members;
  let seen = Hashtbl.create 8 in
  let ins = ref [] and count = ref 0 and ok = ref true in
  let add (s : Circuit.source) =
    match s with
    | Circuit.From_literal (Literal.Const0 | Literal.Const1) -> ()
    | Circuit.From_rop r when Hashtbl.mem inside r -> ()
    | s ->
      let k = source_key s in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        ins := k :: !ins;
        incr count;
        if !count > max_live then ok := false
      end
  in
  Array.iter
    (fun m ->
      let { Circuit.in1; in2 } = c.Circuit.rops.(m) in
      add in1;
      add in2)
    members;
  if !ok && !count >= 1 then Some (Array.of_list (List.rev !ins)) else None

let enumerate (c : Circuit.t) =
  let n_r = Circuit.n_rops c in
  if n_r = 0 then []
  else begin
    let out_ref = Array.make n_r false in
    Array.iter
      (function Circuit.From_rop r -> out_ref.(r) <- true | _ -> ())
      c.Circuit.outputs;
    (* rop-level consumer lists (ascending, each consumer index > producer) *)
    let consumers = Array.make n_r [] in
    Array.iteri
      (fun j (r : Circuit.rop) ->
        let see = function
          | Circuit.From_rop i -> consumers.(i) <- j :: consumers.(i)
          | _ -> ()
        in
        see r.Circuit.in2;
        see r.Circuit.in1)
      c.Circuit.rops;
    let last_use = Array.map (function [] -> -1 | j :: _ -> j) consumers in
    let windows = ref [] and seen_members = Hashtbl.create 64 in
    let emit members =
      let key = Array.to_list members in
      if not (Hashtbl.mem seen_members key) then begin
        Hashtbl.add seen_members key ();
        match live_ins c members with
        | Some live_in ->
          windows :=
            { members; live_in; live_out = members.(Array.length members - 1) }
            :: !windows
        | None -> ()
      end
    in
    (* family 1: contiguous single-live-out spans *)
    for lo = 0 to n_r - 1 do
      for hi = lo + 2 to min n_r (lo + max_width) do
        let n_live_out = ref 0 and live_out = ref (-1) in
        for r = lo to hi - 1 do
          if out_ref.(r) || last_use.(r) >= hi then begin
            incr n_live_out;
            live_out := r
          end
        done;
        if !n_live_out = 1 && !live_out = hi - 1 then
          emit (Array.init (hi - lo) (fun i -> lo + i))
      done
    done;
    (* family 2: the capped maximum fanout-free cone of every R-op — grown
       by repeatedly absorbing any input R-op all of whose consumers are
       already members (a rejected candidate can become eligible once a
       later sibling joins, hence the fixpoint loop) *)
    for o = n_r - 1 downto 0 do
      let members = Hashtbl.create 8 in
      Hashtbl.replace members o ();
      let size = ref 1 in
      let changed = ref true in
      while !changed && !size < max_width do
        changed := false;
        let candidates = Hashtbl.create 8 in
        Hashtbl.iter
          (fun m () ->
            let see = function
              | Circuit.From_rop r when not (Hashtbl.mem members r) ->
                Hashtbl.replace candidates r ()
              | _ -> ()
            in
            let { Circuit.in1; in2 } = c.Circuit.rops.(m) in
            see in1;
            see in2)
          members;
        (* largest first: consumers have larger indices than producers *)
        Hashtbl.fold (fun r () acc -> r :: acc) candidates []
        |> List.sort (fun a b -> compare b a)
        |> List.iter (fun r ->
               if
                 !size < max_width
                 && (not (out_ref.(r)))
                 && List.for_all
                      (fun j -> Hashtbl.mem members j)
                      consumers.(r)
               then begin
                 Hashtbl.replace members r ();
                 incr size;
                 changed := true
               end)
      done;
      if !size >= 2 then begin
        let ms =
          Hashtbl.fold (fun m () acc -> m :: acc) members []
          |> List.sort compare |> Array.of_list
        in
        emit ms
      end
    done;
    List.sort
      (fun a b ->
        if a.live_out <> b.live_out then compare a.live_out b.live_out
        else compare (width a) (width b))
      !windows
  end
