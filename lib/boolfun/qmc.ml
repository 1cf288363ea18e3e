type cube = { care : int; value : int }

let covers c q = q land c.care = c.value

let cube_size c =
  let rec pop acc n = if n = 0 then acc else pop (acc + (n land 1)) (n lsr 1) in
  pop 0 c.care

let cube_literals n c =
  let rec go i acc =
    if i > n then List.rev acc
    else
      let bit = 1 lsl (n - i) in
      if c.care land bit = 0 then go (i + 1) acc
      else
        let l = if c.value land bit <> 0 then Literal.Pos i else Literal.Neg i in
        go (i + 1) (l :: acc)
  in
  go 1 []

let sop_table n cubes =
  Truth_table.of_fun n (fun q -> List.exists (fun c -> covers c q) cubes)

let pp_cube n ppf c =
  match cube_literals n c with
  | [] -> Format.pp_print_string ppf "1"
  | lits ->
    Format.pp_print_string ppf
      (String.concat "*" (List.map Literal.to_string lits))

(* Classic QMC with a hashed merge step. Implicants are (value, dc) pairs
   with [value land dc = 0], packed into one int key. Two implicants with
   equal [dc] merge when their values differ in exactly one bit, so each
   implicant only needs to look up its one-bit neighbour (value lor bit, dc)
   for every free bit it has at 0: O(L·n) per level of L implicants.
   Implicants never marked as merged are prime. *)
let prime_implicants n minterms =
  let pack v dc = (dc lsl n) lor v in
  let value k = k land ((1 lsl n) - 1) and dc k = k lsr n in
  let primes = ref [] in
  let level = ref (List.sort_uniq Int.compare minterms) in
  while !level <> [] do
    (* implicant key -> merged flag *)
    let merged = Hashtbl.create (2 * List.length !level) in
    List.iter (fun k -> Hashtbl.replace merged k false) !level;
    let next = Hashtbl.create 64 in
    List.iter
      (fun k ->
        let v = value k and d = dc k in
        for b = 0 to n - 1 do
          let bit = 1 lsl b in
          if (v lor d) land bit = 0 then begin
            let k' = pack (v lor bit) d in
            if Hashtbl.mem merged k' then begin
              Hashtbl.replace merged k true;
              Hashtbl.replace merged k' true;
              Hashtbl.replace next (pack v (d lor bit)) ()
            end
          end
        done)
      !level;
    List.iter
      (fun k ->
        if not (Hashtbl.find merged k) then primes := (value k, dc k) :: !primes)
      !level;
    level := Hashtbl.fold (fun k () acc -> k :: acc) next []
  done;
  let full = (1 lsl n) - 1 in
  List.map
    (fun (v, dc) -> { care = full land lnot dc; value = v })
    (List.sort_uniq Stdlib.compare !primes)

let minimize tt =
  let n = Truth_table.arity tt in
  let minterms =
    List.filter (Truth_table.eval tt) (List.init (Truth_table.rows tt) Fun.id)
  in
  match minterms with
  | [] -> []
  | _ when List.length minterms = Truth_table.rows tt -> [ { care = 0; value = 0 } ]
  | _ ->
    let primes = Array.of_list (prime_implicants n minterms) in
    let uncovered = Hashtbl.create 64 in
    List.iter (fun m -> Hashtbl.replace uncovered m ()) minterms;
    let chosen = ref [] in
    let choose c =
      chosen := c :: !chosen;
      Hashtbl.iter
        (fun m () -> if covers c m then Hashtbl.remove uncovered m)
        (Hashtbl.copy uncovered)
    in
    (* Essential primes first: a minterm covered by exactly one prime forces
       that prime into the cover. *)
    let essential =
      List.filter_map
        (fun m ->
          match Array.to_list (Array.map (fun c -> covers c m) primes) with
          | flags ->
            (match List.filteri (fun _ f -> f) flags with
             | [ _ ] ->
               let idx = ref (-1) in
               Array.iteri (fun i c -> if covers c m then idx := i) primes;
               Some !idx
             | _ -> None))
        minterms
    in
    List.iter (fun i -> choose primes.(i)) (List.sort_uniq Stdlib.compare essential);
    (* Greedy set cover for the rest: repeatedly pick the prime covering the
       most uncovered minterms, breaking ties towards fewer literals. *)
    while Hashtbl.length uncovered > 0 do
      let best = ref None in
      Array.iter
        (fun c ->
          let gain =
            Hashtbl.fold (fun m () acc -> if covers c m then acc + 1 else acc) uncovered 0
          in
          if gain > 0 then
            match !best with
            | None -> best := Some (c, gain)
            | Some (bc, bg) ->
              if gain > bg || (gain = bg && cube_size c < cube_size bc) then
                best := Some (c, gain))
        primes;
      match !best with
      | Some (c, _) -> choose c
      | None -> Hashtbl.reset uncovered (* unreachable: primes cover all minterms *)
    done;
    List.rev !chosen
