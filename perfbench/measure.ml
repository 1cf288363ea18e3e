(* Timing, allocation and counter bookkeeping for the benchmark.

   Spans are recorded from the benchmark's own code around calls into the
   library's public functions; nothing inside the library is instrumented.
   With tracing off, [span] is a single branch. *)

let now = Unix.gettimeofday

type acc = {
  mutable secs : float;
  mutable words : float;  (* words allocated (minor + major - promoted) *)
  mutable minor : int;  (* minor collections *)
  mutable major : int;  (* major collections *)
}

let tracing = ref false
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

let acc layer =
  match Hashtbl.find_opt accs layer with
  | Some a -> a
  | None ->
    let a = { secs = 0.; words = 0.; minor = 0; major = 0 } in
    Hashtbl.add accs layer a;
    a

let alloc_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [span layer f] runs [f ()]; in a traced run it adds the call's wall time
   and GC deltas to [layer]. Spans never nest: a layer's self time is the
   duration of its own calls. *)
let span layer f =
  if not !tracing then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    let a = acc layer in
    a.secs <- a.secs +. (t1 -. t0);
    a.words <- a.words +. (alloc_words g1 -. alloc_words g0);
    a.minor <- a.minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    a.major <- a.major + (g1.Gc.major_collections - g0.Gc.major_collections);
    r
  end

let layer_s layer =
  match Hashtbl.find_opt accs layer with Some a -> a.secs | None -> 0.

let layer_mw layer =
  match Hashtbl.find_opt accs layer with
  | Some a -> a.words /. 1e6
  | None -> 0.

(* Named counters, collected in every run (traced or not). *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)
let count name v = Hashtbl.replace counters name (counter name +. v)
let counti name v = count name (float_of_int v)
let ratio num den = if den > 0. then num /. den else 0.

let reset () =
  Hashtbl.reset accs;
  Hashtbl.reset counters

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank median. *)
let median l =
  let a = sorted l in
  a.((Array.length a - 1) / 2)

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, or the maximum when there are at most ten.
   Returns (label, value). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n <= 10 then ("max", a.(n - 1))
  else
    (Printf.sprintf "p%.1f" (100. *. float_of_int (n - 10) /. float_of_int n), a.(n - 11))
