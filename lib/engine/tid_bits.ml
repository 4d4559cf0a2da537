(* One bit per tid over [bits], whose bit 0 is tid [base]; every other
   member in [far].  The interface states the window's size bound. *)

open Tm_core

type t = {
  mutable base : int;  (* the tid of bit 0; -1 while no bit is set *)
  mutable bits : Bytes.t;
  mutable added : int;  (* tids added since the last [clear] *)
  far : (int, unit) Hashtbl.t;
}

let create () = { base = -1; bits = Bytes.make 8 '\000'; added = 0; far = Hashtbl.create 1 }

let mem s tid =
  let t = Tid.to_int tid in
  let i = t - s.base in
  (i >= 0
  && i < 8 * Bytes.length s.bits
  && Char.code (Bytes.unsafe_get s.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0)
  || (Hashtbl.length s.far > 0 && Hashtbl.mem s.far t)

(* The first of [n], [2n], [4n], ... that is at least [bound]. *)
let rec doubled n bound = if n >= bound then n else doubled (2 * n) bound

(* Make bit [i] part of the window if the size bound allows it.  A bit
   beyond the largest window the bound allows grows nothing. *)
let fits s i =
  let n = Bytes.length s.bits in
  if i < 8 * n then true
  else if i >= 8 * doubled n (32 + (2 * s.added)) then false
  else begin
    let grown = Bytes.make (doubled n ((i / 8) + 1)) '\000' in
    Bytes.blit s.bits 0 grown 0 n;
    s.bits <- grown;
    true
  end

let add s tid =
  let t = Tid.to_int tid in
  s.added <- s.added + 1;
  if s.base < 0 && t >= 0 then s.base <- t land lnot 7;
  let i = t - s.base in
  if t >= 0 && i >= 0 && fits s i then begin
    let k = i lsr 3 in
    Bytes.unsafe_set s.bits k
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get s.bits k) lor (1 lsl (i land 7))))
  end
  else Hashtbl.replace s.far t ()

let clear s =
  s.base <- -1;
  s.added <- 0;
  Bytes.fill s.bits 0 (Bytes.length s.bits) '\000';
  Hashtbl.reset s.far
