(** Quine–McCluskey two-level minimization.

    Produces a minimal-ish (essential primes + greedy cover) sum-of-products
    for a truth table. This powers the gate-oriented NOR-network baseline the
    paper contrasts with, and gives sound upper bounds for R-only synthesis.

    A cube constrains a subset of the variables: variable [x_i] (1-based) is
    constrained iff bit [n - i] of [care] is set, and must then equal bit
    [n - i] of [value] (the same bit positions as in the row index). *)

type cube = { care : int; value : int }

(** [cube_literals n c] lists the literals of cube [c] (empty for the
    tautology cube). *)
val cube_literals : int -> cube -> Literal.t list

(** [covers c q] tests whether row [q] satisfies cube [c]. *)
val covers : cube -> int -> bool

(** [prime_implicants n minterms] lists every prime implicant of the
    [n]-input function whose ON-set is [minterms] (row indices), ordered by
    ([value], don't-care mask). *)
val prime_implicants : int -> int list -> cube list

(** [minimize tt] is a prime-implicant cover of the ON-set of [tt]. Returns
    [[]] for the constant-0 function and [[{care = 0; value = 0}]] for the
    constant-1 function. *)
val minimize : Truth_table.t -> cube list

(** [sop_table n cubes] re-evaluates a cover as a truth table (used to check
    that covers are exact). *)
val sop_table : int -> cube list -> Truth_table.t

(** Number of literals of a cube. *)
val cube_size : cube -> int

val pp_cube : int -> Format.formatter -> cube -> unit
