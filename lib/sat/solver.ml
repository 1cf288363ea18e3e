(* Conflict-driven clause learning in the MiniSat lineage. The comments
   flag the invariants that are easy to break:
   - a clause's watched literals are its first two; the clause is
     registered in watches.(negate lit 0) and watches.(negate lit 1);
   - when a clause is the reason of an assignment, the asserted literal is
     its first literal;
   - assigns.(v) is 0 for unassigned, 1 for true, -1 for false.

   Clause storage. Every clause lives in an int arena as
   [len; meta; act_slot; lit 0; ...; lit (len-1)] and is named by an int
   ref, (chunk lsl off_bits) lor offset. Watch lists, reasons and the
   learnt list hold refs; -1 means "no clause". [meta] packs the learnt
   bit, the removed bit and the LBD. A learnt clause's activity lives in
   [cla_act.(act_slot)], an unboxed float array. The arena is a sequence
   of chunks, each half again as large as the one before, from
   [first_chunk] up to [max_chunk] words. Chunks are never copied, and
   growing by half rather than doubling bounds unused capacity to a third
   (doubling chunks measured a higher peak heap than clause records did).
   Learnt-DB reduction only marks clauses removed; [propagate] drops their
   watchers lazily, and once removed clauses make up a fifth of the arena,
   [compact] slides the live clauses down in address order and rewrites
   every ref. Compaction keeps every watch list in its order, so where a
   clause is stored never changes the search. *)

type result = Sat | Unsat | Unknown

type restart_schedule = Luby | Geometric

(* Portfolio diversification knobs. The default configuration reproduces
   the historical solver bit-for-bit (no jitter, saved-phase decisions,
   Luby restarts at base 100), so every existing verdict and statistic is
   unchanged unless a caller opts in. *)
type config = {
  seed : int;
  random_polarity : float;
  restart : restart_schedule;
  restart_base : int;
  phase_init : bool;
  var_jitter : float;
}

let default_config =
  {
    seed = 0;
    random_polarity = 0.;
    restart = Luby;
    restart_base = 100;
    phase_init = false;
    var_jitter = 0.;
  }

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  imported_clauses : int;
  learnt_clauses : int;
  peak_learnts : int;
  props_per_s : float;
}

(* --- clause arena layout ---------------------------------------------- *)

let hdr = 3 (* len; meta; act_slot *)
let learnt_bit = 1
let removed_bit = 2
let lbd_shift = 2
let off_bits = 30
let off_mask = (1 lsl off_bits) - 1
let first_chunk = 1 lsl 13
let max_chunk = 1 lsl 20

(* A growable int vector: the trail, watch lists, the learnt list and the
   conflict-analysis buffers. *)
type ivec = { mutable data : int array; mutable size : int }

let ivec () = { data = [||]; size = 0 }

let push v x =
  if v.size = Array.length v.data then begin
    let data = Array.make (max 8 (2 * v.size)) 0 in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

type t = {
  cfg : config;
  mutable rng : int64;
  mutable nvars : int;
  mutable assigns : int array;
  mutable level : int array;
  mutable reason : int array; (* clause ref, -1 = no reason *)
  mutable var_act : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  heap : Heap.t;
  mutable chunks : int array array;
  mutable used : int array; (* words in use per chunk *)
  mutable cur : int; (* the chunk new clauses go to; later ones are empty *)
  mutable arena_words : int; (* words of stored clauses, removed included *)
  mutable wasted : int; (* words of removed clauses *)
  mutable cla_act : float array; (* learnt activity, by act_slot *)
  mutable nslots : int;
  free_slots : ivec;
  mutable nclauses : int;
  learnts : ivec;
  mutable watches : ivec array;
  trail : ivec;
  trail_lim : ivec;
  mutable qhead : int;
  mutable var_inc : float;
  var_decay : float;
  mutable cla_inc : float;
  cla_decay : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable max_learnts : float;
  mutable model : int array; (* copy of assigns at last Sat *)
  mutable has_model : bool;
  (* Conflict-analysis buffers, reused across conflicts. [learnt] holds the
     clause [analyze] derives until [record_learnt] stores it; a level is
     counted towards the LBD when [lvl_stamp.(level)] is not yet [stamp]. *)
  learnt : ivec;
  to_clear : ivec;
  stack : ivec;
  undo : ivec;
  mutable lvl_stamp : int array;
  mutable stamp : int;
  mutable peak_learnts : int;
  mutable solve_time_s : float;
  mutable failed : int list; (* failed assumptions of the last Unsat *)
  (* Portfolio clause sharing. [export] is called from [record_learnt] for
     learnts with LBD <= [export_max_lbd]; [import] is drained at restart
     boundaries (decision level 0), where adding permanent clauses is sound. *)
  mutable export : (int array -> lbd:int -> unit) option;
  mutable export_max_lbd : int;
  mutable import : (unit -> int array list) option;
  mutable imported : int;
}

(* splitmix64: turns a caller seed into a well-mixed non-zero RNG state. *)
let mix64 seed =
  let z = Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  if Int64.equal z 0L then 0x2545f4914f6cdd1dL else z

(* xorshift64*: cheap per-decision randomness, deterministic per seed. *)
let rand_bits t =
  let x = t.rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng <- x;
  Int64.mul x 0x2545f4914f6cdd1dL

let rand_float t =
  let bits = Int64.to_int (Int64.shift_right_logical (rand_bits t) 11) in
  float_of_int bits /. 9007199254740992. (* 2^53 *)

let rand_bool t = Int64.logand (rand_bits t) 1L = 1L

let create ?(config = default_config) () =
  {
    cfg = config;
    rng = mix64 config.seed;
    nvars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    var_act = [||];
    phase = [||];
    seen = [||];
    heap = Heap.create ();
    chunks = [||];
    used = [||];
    cur = 0;
    arena_words = 0;
    wasted = 0;
    cla_act = [||];
    nslots = 0;
    free_slots = ivec ();
    nclauses = 0;
    learnts = ivec ();
    watches = [||];
    trail = ivec ();
    trail_lim = ivec ();
    qhead = 0;
    var_inc = 1.0;
    var_decay = 0.95;
    cla_inc = 1.0;
    cla_decay = 0.999;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    max_learnts = 0.;
    model = [||];
    has_model = false;
    learnt = ivec ();
    to_clear = ivec ();
    stack = ivec ();
    undo = ivec ();
    lvl_stamp = [||];
    stamp = 0;
    peak_learnts = 0;
    solve_time_s = 0.;
    failed = [];
    export = None;
    export_max_lbd = 0;
    import = None;
    imported = 0;
  }

let nvars t = t.nvars
let nclauses t = t.nclauses
let ok t = t.ok
let config t = t.cfg

let set_clause_export t ~max_lbd f =
  t.export <- Some f;
  t.export_max_lbd <- max_lbd

let set_clause_import t f = t.import <- Some f

let grow_arrays t cap =
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.assigns <- grow t.assigns 0;
  t.level <- grow t.level 0;
  t.reason <- grow t.reason (-1);
  t.var_act <- grow t.var_act 0.;
  t.phase <- grow t.phase t.cfg.phase_init;
  t.seen <- grow t.seen false;
  t.watches <-
    Array.init (2 * cap) (fun i ->
        if i < Array.length t.watches then t.watches.(i) else ivec ())

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  if v >= Array.length t.assigns then
    grow_arrays t (max 16 (2 * Array.length t.assigns + 1));
  (* Jitter must land before the heap insert: the heap orders by var_act at
     insertion time. *)
  if t.cfg.var_jitter > 0. then t.var_act.(v) <- rand_float t *. t.cfg.var_jitter;
  Heap.insert t.heap t.var_act v;
  v

let new_vars t k =
  if k <= 0 then invalid_arg "Solver.new_vars";
  let first = new_var t in
  for _ = 2 to k do
    ignore (new_var t)
  done;
  first

(* --- assignment primitives --------------------------------------------- *)

let[@inline] value_lit t l =
  let a = t.assigns.(Lit.var l) in
  if Lit.sign l then -a else a

let decision_level t = t.trail_lim.size

let enqueue t l reason =
  let v = Lit.var l in
  t.assigns.(v) <- (if Lit.sign l then -1 else 1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  push t.trail l

let new_decision_level t = push t.trail_lim t.trail.size

let cancel_until t target =
  if decision_level t > target then begin
    let bound = t.trail_lim.data.(target) in
    for i = t.trail.size - 1 downto bound do
      let l = t.trail.data.(i) in
      let v = Lit.var l in
      t.assigns.(v) <- 0;
      t.phase.(v) <- not (Lit.sign l);
      t.reason.(v) <- -1;
      if not (Heap.in_heap t.heap v) then Heap.insert t.heap t.var_act v
    done;
    t.trail.size <- bound;
    t.trail_lim.size <- target;
    t.qhead <- bound
  end

(* --- clause arena -------------------------------------------------------- *)

let[@inline] chunk t cr = t.chunks.(cr lsr off_bits)
let[@inline] off cr = cr land off_mask

(* Reserve [size] words and return their ref. Appends to the current chunk,
   moving on to the next (empty) one or a fresh one when it is full. *)
let alloc t size =
  if size > off_mask then invalid_arg "Solver: clause too long";
  let rec fit c =
    if c < Array.length t.chunks then
      if t.used.(c) + size <= Array.length t.chunks.(c) then c else fit (c + 1)
    else begin
      let last = if c = 0 then 0 else Array.length t.chunks.(c - 1) in
      let cap = max size (min max_chunk (max first_chunk (last + (last / 2)))) in
      t.chunks <- Array.append t.chunks [| Array.make cap 0 |];
      t.used <- Array.append t.used [| 0 |];
      c
    end
  in
  let c = fit t.cur in
  t.cur <- c;
  let o = t.used.(c) in
  t.used.(c) <- o + size;
  t.arena_words <- t.arena_words + size;
  (c lsl off_bits) lor o

let take_slot t =
  let s =
    if t.free_slots.size > 0 then begin
      t.free_slots.size <- t.free_slots.size - 1;
      t.free_slots.data.(t.free_slots.size)
    end
    else begin
      let s = t.nslots in
      if s = Array.length t.cla_act then begin
        let act = Array.make (max 64 (2 * s)) 0. in
        Array.blit t.cla_act 0 act 0 s;
        t.cla_act <- act
      end;
      t.nslots <- s + 1;
      s
    end
  in
  t.cla_act.(s) <- 0.;
  s

(* A clause of [n] literals with its header written; the caller fills in
   the literals. *)
let new_clause t ~learnt ~lbd n =
  let cr = alloc t (hdr + n) in
  let a = chunk t cr and o = off cr in
  a.(o) <- n;
  a.(o + 1) <- (lbd lsl lbd_shift) lor (if learnt then learnt_bit else 0);
  a.(o + 2) <- (if learnt then take_slot t else -1);
  cr

let remove_clause t cr =
  let a = chunk t cr and o = off cr in
  a.(o + 1) <- a.(o + 1) lor removed_bit;
  push t.free_slots a.(o + 2);
  t.wasted <- t.wasted + hdr + a.(o)

let attach t cr =
  let a = chunk t cr and o = off cr in
  push t.watches.(Lit.negate a.(o + hdr)) cr;
  push t.watches.(Lit.negate a.(o + hdr + 1)) cr

(* Slide every live clause down to the lowest free address, in address
   order, without a side table:
   1. give each live clause its new ref, kept in its [len] word while [len]
      moves into the [meta] word as [len lsl 32 lor meta];
   2. rewrite the refs in watch lists, the learnt list and reasons through
      those forwarding words. Watchers of removed clauses go, which
      [propagate] would have done lazily; every other watch list entry
      keeps its place;
   3. restore each header and copy the clause to its new ref.
   A clause fits at or below where it is, so the write position never
   passes the read position and no clause is overwritten before it moves. *)
let compact t =
  let nchunks = Array.length t.chunks in
  let wc = ref 0 and wo = ref 0 in
  for rc = 0 to nchunks - 1 do
    let a = t.chunks.(rc) and limit = t.used.(rc) in
    let ro = ref 0 in
    while !ro < limit do
      let len = a.(!ro) and meta = a.(!ro + 1) in
      if meta land removed_bit = 0 then begin
        while !wo + hdr + len > Array.length t.chunks.(!wc) do
          incr wc;
          wo := 0
        done;
        a.(!ro) <- (!wc lsl off_bits) lor !wo;
        a.(!ro + 1) <- (len lsl 32) lor meta;
        wo := !wo + hdr + len
      end;
      ro := !ro + hdr + len
    done
  done;
  let forward cr =
    let a = chunk t cr and o = off cr in
    if a.(o + 1) land removed_bit <> 0 then -1 else a.(o)
  in
  Array.iter
    (fun ws ->
      let j = ref 0 in
      for i = 0 to ws.size - 1 do
        let r = forward ws.data.(i) in
        if r >= 0 then begin
          ws.data.(!j) <- r;
          incr j
        end
      done;
      ws.size <- !j)
    t.watches;
  for i = 0 to t.learnts.size - 1 do
    t.learnts.data.(i) <- forward t.learnts.data.(i)
  done;
  for v = 0 to t.nvars - 1 do
    if t.reason.(v) >= 0 then t.reason.(v) <- forward t.reason.(v)
  done;
  let wc = ref 0 and wo = ref 0 in
  for rc = 0 to nchunks - 1 do
    let a = t.chunks.(rc) and limit = t.used.(rc) in
    let ro = ref 0 in
    while !ro < limit do
      let w0 = a.(!ro) and w1 = a.(!ro + 1) in
      if w1 land removed_bit <> 0 then ro := !ro + hdr + w0
      else begin
        let len = w1 lsr 32 and dc = w0 lsr off_bits and d = w0 land off_mask in
        if dc <> !wc then begin
          (* chunks before [dc] are fully read: settle their fill *)
          t.used.(!wc) <- !wo;
          for c = !wc + 1 to dc - 1 do
            t.used.(c) <- 0
          done;
          wc := dc
        end;
        a.(!ro) <- len;
        a.(!ro + 1) <- w1 land 0xFFFF_FFFF;
        Array.blit a !ro t.chunks.(dc) d (hdr + len);
        wo := d + hdr + len;
        ro := !ro + hdr + len
      end
    done
  done;
  t.used.(!wc) <- !wo;
  for c = !wc + 1 to nchunks - 1 do
    t.used.(c) <- 0
  done;
  t.cur <- !wc;
  t.arena_words <- t.arena_words - t.wasted;
  t.wasted <- 0

let add_clause_a t lits =
  if t.ok then begin
    (* Root-level simplification: drop false literals, detect tautologies
       and duplicates. Callers only add clauses at decision level 0. The
       kept literals are compacted to the front of the sorted copy and
       stored in reverse, largest first. *)
    let lits = Array.copy lits in
    Array.sort compare lits;
    let n = ref 0 in
    let taut = ref false in
    Array.iter
      (fun l ->
        if Lit.var l >= t.nvars then invalid_arg "Solver.add_clause: unknown var";
        let prev = if !n > 0 then lits.(!n - 1) else -1 in
        if prev = l then ()
        else if prev = Lit.negate l then taut := true
        else if value_lit t l <> -1 || t.level.(Lit.var l) > 0 then begin
          lits.(!n) <- l;
          incr n
        end)
      lits;
    let n = !n in
    let sat_already = ref false in
    for i = 0 to n - 1 do
      let l = lits.(i) in
      if value_lit t l = 1 && t.level.(Lit.var l) = 0 then sat_already := true
    done;
    if not (!taut || !sat_already) then begin
      if n = 0 then t.ok <- false
      else if n = 1 then begin
        let l = lits.(0) in
        if value_lit t l = 0 then enqueue t l (-1)
        else if value_lit t l = -1 then t.ok <- false
      end
      else begin
        let cr = new_clause t ~learnt:false ~lbd:0 n in
        let a = chunk t cr and o = off cr + hdr in
        for i = 0 to n - 1 do
          a.(o + i) <- lits.(n - 1 - i)
        done;
        t.nclauses <- t.nclauses + 1;
        attach t cr
      end
    end
  end

let add_clause t lits = add_clause_a t (Array.of_list lits)

(* --- propagation --------------------------------------------------------- *)

let propagate t =
  let conflict = ref (-1) in
  let chunks = t.chunks in
  let trail = t.trail in
  while !conflict < 0 && t.qhead < trail.size do
    let p = trail.data.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let not_p = Lit.negate p in
    (* a new watch is never ¬p's own list, so [ws] does not grow below *)
    let ws = t.watches.(p) in
    let wd = ws.data and n = ws.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = wd.(!i) in
      incr i;
      let a = chunks.(cr lsr off_bits) and o = cr land off_mask in
      if a.(o + 1) land removed_bit = 0 then begin
        let l0 = o + hdr in
        (* ensure the false literal (¬p) sits at lit 1 *)
        if a.(l0) = not_p then begin
          a.(l0) <- a.(l0 + 1);
          a.(l0 + 1) <- not_p
        end;
        let first = a.(l0) in
        if value_lit t first = 1 then begin
          wd.(!j) <- cr;
          incr j
        end
        else begin
          let stop = l0 + a.(o) in
          let k = ref (l0 + 2) in
          while !k < stop && value_lit t a.(!k) = -1 do
            incr k
          done;
          if !k < stop then begin
            (* new watch found: move it to lit 1 *)
            let w = a.(!k) in
            a.(l0 + 1) <- w;
            a.(!k) <- not_p;
            push t.watches.(Lit.negate w) cr
          end
          else begin
            wd.(!j) <- cr;
            incr j;
            if value_lit t first = -1 then begin
              (* conflict: keep remaining watchers, stop *)
              conflict := cr;
              while !i < n do
                wd.(!j) <- wd.(!i);
                incr i;
                incr j
              done
            end
            else enqueue t first cr
          end
        end
      end
    done;
    ws.size <- !j;
    if !conflict >= 0 then t.qhead <- trail.size
  done;
  !conflict

(* --- activities ---------------------------------------------------------- *)

let var_bump t v =
  t.var_act.(v) <- t.var_act.(v) +. t.var_inc;
  if t.var_act.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.var_act.(i) <- t.var_act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Heap.notify_increased t.heap t.var_act v

let var_decay_activity t = t.var_inc <- t.var_inc /. t.var_decay

let cla_bump t cr =
  let s = (chunk t cr).(off cr + 2) in
  t.cla_act.(s) <- t.cla_act.(s) +. t.cla_inc;
  if t.cla_act.(s) > 1e20 then begin
    for i = 0 to t.learnts.size - 1 do
      let cr = t.learnts.data.(i) in
      let s = (chunk t cr).(off cr + 2) in
      t.cla_act.(s) <- t.cla_act.(s) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc /. t.cla_decay

(* --- conflict analysis --------------------------------------------------- *)

(* Exact recursive redundancy check (self-subsumption through reasons):
   a literal is redundant when every path through its reason graph ends in a
   literal already in the learnt clause or at level 0. *)
let lit_redundant t l =
  let undo = t.undo and stack = t.stack in
  undo.size <- 0;
  stack.size <- 0;
  push stack l;
  let failed = ref false in
  while (not !failed) && stack.size > 0 do
    stack.size <- stack.size - 1;
    let cr = t.reason.(Lit.var stack.data.(stack.size)) in
    if cr < 0 then failed := true
    else begin
      let a = chunk t cr and o = off cr + hdr in
      let stop = o + a.(o - hdr) in
      let k = ref (o + 1) in
      while (not !failed) && !k < stop do
        let v = Lit.var a.(!k) in
        if (not t.seen.(v)) && t.level.(v) > 0 then
          if t.reason.(v) >= 0 then begin
            t.seen.(v) <- true;
            push undo v;
            push stack a.(!k)
          end
          else failed := true;
        incr k
      done
    end
  done;
  for i = 0 to undo.size - 1 do
    if !failed then t.seen.(undo.data.(i)) <- false
    else push t.to_clear undo.data.(i)
  done;
  not !failed

(* First-UIP analysis of conflict [confl]. Leaves the learnt clause in
   [t.learnt], asserting literal first and a highest-level tail literal
   second, and returns (backtrack level, LBD). *)
let analyze t confl =
  let out = t.learnt in
  out.size <- 0;
  push out (-1); (* slot for the asserting literal *)
  let dl = decision_level t in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail.size - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let cr = !confl in
    let a = chunk t cr and o = off cr in
    if a.(o + 1) land learnt_bit <> 0 then cla_bump t cr;
    let start = if !p = -1 then 0 else 1 in
    for j = o + hdr + start to o + hdr + a.(o) - 1 do
      let q = a.(j) in
      let v = Lit.var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- true;
        if t.level.(v) >= dl then incr path_c else push out q
      end
    done;
    (* walk the trail back to the next marked literal *)
    while not t.seen.(Lit.var t.trail.data.(!index)) do
      decr index
    done;
    p := t.trail.data.(!index);
    decr index;
    confl := t.reason.(Lit.var !p);
    t.seen.(Lit.var !p) <- false;
    decr path_c;
    if !path_c = 0 then continue := false
  done;
  out.data.(0) <- Lit.negate !p;
  (* record marked vars for cleanup *)
  for i = 0 to out.size - 1 do
    push t.to_clear (Lit.var out.data.(i))
  done;
  (* minimize in place: drop redundant literals from the tail *)
  let n = ref 1 in
  for i = 1 to out.size - 1 do
    let l = out.data.(i) in
    if t.reason.(Lit.var l) < 0 || not (lit_redundant t l) then begin
      out.data.(!n) <- l;
      incr n
    end
  done;
  out.size <- !n;
  for i = 0 to t.to_clear.size - 1 do
    t.seen.(t.to_clear.data.(i)) <- false
  done;
  t.to_clear.size <- 0;
  (* compute backtrack level; move the highest-level tail literal to slot 1 *)
  let lits = out.data in
  let bt_level =
    if out.size > 1 then begin
      let max_i = ref 1 in
      for i = 2 to out.size - 1 do
        if t.level.(Lit.var lits.(i)) > t.level.(Lit.var lits.(!max_i)) then
          max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      t.level.(Lit.var lits.(1))
    end
    else 0
  in
  (* LBD = number of distinct decision levels. Assumption pseudo-levels
     count like any other: discounting them (tried) floods the
     [reduce_db] glue bucket — any clause spanning two real levels plus
     assumption literals is kept forever — and measurably bloats the
     learnt DB on assumption-ladder sweeps. *)
  if dl >= Array.length t.lvl_stamp then begin
    let st = Array.make (2 * (dl + 1)) 0 in
    Array.blit t.lvl_stamp 0 st 0 (Array.length t.lvl_stamp);
    t.lvl_stamp <- st
  end;
  t.stamp <- t.stamp + 1;
  let lbd = ref 0 in
  for i = 0 to out.size - 1 do
    let lv = t.level.(Lit.var lits.(i)) in
    if t.lvl_stamp.(lv) <> t.stamp then begin
      t.lvl_stamp.(lv) <- t.stamp;
      incr lbd
    end
  done;
  (bt_level, !lbd)

let record_learnt t lbd =
  let lits = t.learnt.data and n = t.learnt.size in
  (match t.export with
   | Some f when lbd <= t.export_max_lbd || n = 1 -> f (Array.sub lits 0 n) ~lbd
   | _ -> ());
  if n = 1 then enqueue t lits.(0) (-1)
  else begin
    let cr = new_clause t ~learnt:true ~lbd n in
    Array.blit lits 0 (chunk t cr) (off cr + hdr) n;
    push t.learnts cr;
    if t.learnts.size > t.peak_learnts then t.peak_learnts <- t.learnts.size;
    attach t cr;
    cla_bump t cr;
    enqueue t lits.(0) cr
  end

(* Which assumptions entailed the falsification of assumption [p]?
   MiniSat's analyzeFinal: walk the implication graph backwards from ¬p,
   collecting the pseudo-decisions (no reason) it hangs on. This only
   runs while [decision_level t <= number of assumptions], so every decision
   on the trail is itself an assumption. Level-0 antecedents are root facts
   and are skipped: an empty tail means ¬p is a root consequence and the
   core is [p] alone. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    let marked = t.undo in
    marked.size <- 0;
    let mark v =
      if not t.seen.(v) then begin
        t.seen.(v) <- true;
        push marked v
      end
    in
    mark (Lit.var p);
    let bottom = t.trail_lim.data.(0) in
    for i = t.trail.size - 1 downto bottom do
      let l = t.trail.data.(i) in
      let v = Lit.var l in
      if t.seen.(v) then begin
        let cr = t.reason.(v) in
        if cr < 0 then core := l :: !core
        else begin
          let a = chunk t cr and o = off cr in
          for j = o + hdr to o + hdr + a.(o) - 1 do
            let w = Lit.var a.(j) in
            if t.level.(w) > 0 then mark w
          done
        end
      end
    done;
    for i = 0 to marked.size - 1 do
      t.seen.(marked.data.(i)) <- false
    done
  end;
  !core

(* --- learnt DB reduction -------------------------------------------------- *)

let locked t cr =
  let l0 = (chunk t cr).(off cr + hdr) in
  t.reason.(Lit.var l0) = cr && value_lit t l0 = 1

let reduce_db t =
  (* Glucose-flavoured: drop the worse half (high LBD, low activity), keep
     locked clauses and glue clauses (lbd <= 2). *)
  let lbd cr = (chunk t cr).(off cr + 1) lsr lbd_shift in
  let act cr = t.cla_act.((chunk t cr).(off cr + 2)) in
  let live = Array.sub t.learnts.data 0 t.learnts.size in
  Array.sort
    (fun a b ->
      let la = lbd a and lb = lbd b in
      if la <> lb then compare la lb else compare (act b) (act a))
    live;
  let keep_count = Array.length live / 2 in
  t.learnts.size <- 0;
  Array.iteri
    (fun i cr ->
      if i < keep_count || lbd cr <= 2 || locked t cr then push t.learnts cr
      else remove_clause t cr)
    live;
  if 5 * t.wasted >= t.arena_words then compact t

(* --- search --------------------------------------------------------------- *)

let pick_branch_var t =
  let rec go () =
    if Heap.is_empty t.heap then -1
    else
      let v = Heap.remove_max t.heap t.var_act in
      if t.assigns.(v) = 0 then v else go ()
  in
  go ()

exception Found of result

let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

(* Budget checks run on both the conflict and the conflict-free paths of
   [search], amortized: [gettimeofday] is a syscall, so the deadline is
   consulted every [budget_check_iters] loop iterations (each iteration is
   one decision or one conflict) or every [budget_check_props] unit
   propagations, whichever comes first. A search can therefore overshoot
   its deadline by at most the cost of that many steps — in particular a
   conflict-free (or conflict-only) stretch can no longer run unboundedly
   past [~timeout]. *)
let budget_check_iters = 256
let budget_check_props = 20_000

let search t ~assumptions ~conflict_budget ~deadline ~global_conflicts ~stop =
  let local_conflicts = ref 0 in
  let result = ref Unknown in
  let since_check = ref 0 in
  let props_mark = ref t.propagations in
  let check_budgets () =
    since_check := 0;
    props_mark := t.propagations;
    (match deadline with
     | Some d when Unix.gettimeofday () > d -> raise (Found Unknown)
     | _ -> ());
    (match stop with
     | Some f when f () -> raise (Found Unknown)
     | _ -> ());
    match global_conflicts with
    | Some g when t.conflicts >= g -> raise (Found Unknown)
    | _ -> ()
  in
  (try
     while true do
       incr since_check;
       if
         !since_check >= budget_check_iters
         || t.propagations - !props_mark >= budget_check_props
       then check_budgets ();
       let confl = propagate t in
       if confl >= 0 then begin
         t.conflicts <- t.conflicts + 1;
         incr local_conflicts;
         if decision_level t = 0 then begin
           t.ok <- false;
           t.failed <- [];
           raise (Found Unsat)
         end;
         let bt_level, lbd = analyze t confl in
         cancel_until t bt_level;
         record_learnt t lbd;
         var_decay_activity t;
         cla_decay_activity t
       end
       else begin
         if !local_conflicts >= conflict_budget then begin
           (* Restart to level 0, not merely to the assumption prefix:
              re-enqueuing the assumptions re-propagates them against the
              clauses learnt since the last restart, strengthening the
              trail prefix every restart. Restarting onto a frozen prefix
              (tried) saves that propagation but runs the rest of the
              solve on a stale prefix and measurably slows ladder sweeps. *)
           cancel_until t 0;
           raise Exit
         end;
         if float_of_int t.learnts.size -. float_of_int t.trail.size
            >= t.max_learnts
         then reduce_db t;
         (* assumptions become pseudo-decisions on the first levels *)
         if decision_level t < Array.length assumptions then begin
           let p = assumptions.(decision_level t) in
           match value_lit t p with
           | 1 -> new_decision_level t
           | -1 ->
             t.failed <- analyze_final t p;
             raise (Found Unsat)
           | _ ->
             new_decision_level t;
             enqueue t p (-1)
         end
         else begin
           let v = pick_branch_var t in
           if v = -1 then begin
             (* model found *)
             t.model <- Array.copy t.assigns;
             t.has_model <- true;
             raise (Found Sat)
           end;
           t.decisions <- t.decisions + 1;
           new_decision_level t;
           let ph =
             if t.cfg.random_polarity > 0. && rand_float t < t.cfg.random_polarity
             then rand_bool t
             else t.phase.(v)
           in
           enqueue t (Lit.make v (not ph)) (-1)
         end
       end
     done;
     Unknown
   with
   | Found r ->
     result := r;
     !result
   | Exit -> Unknown)

let solve ?(assumptions = []) ?max_conflicts ?timeout ?stop t =
  if not t.ok then begin
    t.failed <- [];
    Unsat
  end
  else begin
    t.has_model <- false;
    t.failed <- [];
    let t0 = Unix.gettimeofday () in
    let assumptions = Array.of_list assumptions in
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
    let base_conflicts = t.conflicts in
    let global_conflicts = Option.map (fun m -> base_conflicts + m) max_conflicts in
    t.max_learnts <-
      max 1000. (float_of_int t.nclauses /. 3.);
    let result = ref Unknown in
    let restart = ref 0 in
    let continue = ref true in
    while !continue do
      (* Restart boundary: decision level is 0 here (initially, and [search]
         cancels to 0 before raising Exit), so foreign learnts can be added
         as ordinary permanent clauses. Learnt clauses are implied by the
         formula alone — independent of this worker's assumptions — so
         importing across differently-assumed workers is sound. *)
      (match t.import with
       | Some f when t.ok ->
         List.iter
           (fun lits ->
             if Array.for_all (fun l -> Lit.var l < t.nvars) lits then begin
               add_clause_a t lits;
               t.imported <- t.imported + 1
             end)
           (f ())
       | _ -> ());
      if not t.ok then begin
        t.failed <- [];
        result := Unsat;
        continue := false
      end
      else begin
      let base = float_of_int t.cfg.restart_base in
      let budget =
        match t.cfg.restart with
        | Luby -> int_of_float (luby 2.0 !restart *. base)
        | Geometric -> int_of_float (base *. (1.5 ** float_of_int !restart))
      in
      t.restarts <- t.restarts + (if !restart > 0 then 1 else 0);
      (match
         search t ~assumptions ~conflict_budget:budget ~deadline
           ~global_conflicts ~stop
       with
       | Sat ->
         result := Sat;
         continue := false
       | Unsat ->
         result := Unsat;
         continue := false
       | Unknown ->
         (* restart unless a budget ran out *)
         let out_of_time =
           match deadline with Some d -> Unix.gettimeofday () > d | None -> false
         in
         let out_of_conflicts =
           match global_conflicts with Some g -> t.conflicts >= g | None -> false
         in
         let stopped = match stop with Some f -> f () | None -> false in
         if out_of_time || out_of_conflicts || stopped then begin
           result := Unknown;
           continue := false
         end
         else begin
           incr restart;
           t.max_learnts <- t.max_learnts *. 1.05
         end);
      ()
      end
    done;
    cancel_until t 0;
    t.solve_time_s <- t.solve_time_s +. (Unix.gettimeofday () -. t0);
    !result
  end

let value t l =
  if not t.has_model then invalid_arg "Solver.value: no model";
  let a = t.model.(Lit.var l) in
  if Lit.sign l then a < 0 else a > 0

let value_var t v = value t (Lit.pos v)

let reset_phases t = Array.fill t.phase 0 (Array.length t.phase) t.cfg.phase_init

let failed_assumptions t = t.failed

let stats t =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    imported_clauses = t.imported;
    learnt_clauses = t.learnts.size;
    peak_learnts = t.peak_learnts;
    props_per_s =
      (if t.solve_time_s > 0. then
         float_of_int t.propagations /. t.solve_time_s
       else 0.);
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "conflicts=%d decisions=%d propagations=%d restarts=%d imported=%d \
     learnt=%d peak_learnt=%d props/s=%.0f"
    s.conflicts s.decisions s.propagations s.restarts s.imported_clauses
    s.learnt_clauses s.peak_learnts s.props_per_s
