(* Entries live in three parallel arrays: an unboxed float array of
   priorities, the insertion sequence numbers and the values.  A push
   writes one slot of each, so it allocates no entry record and no
   boxed float; the sifts move a hole instead of swapping entries. *)
type 'v t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : 'v array;
  mutable size : int;
  mutable next_seq : int;
  want : int;  (* capacity hint for the first allocation *)
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  { prios = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0; want = capacity }

let length h = h.size
let is_empty h = h.size = 0

(* Ensure room for one more entry; [filler] initialises any fresh value
   cells and is immediately overwritten by the caller. *)
let ensure_room h filler =
  let cap = Array.length h.prios in
  if h.size = cap then begin
    let new_cap = if cap = 0 then max h.want 16 else cap * 2 in
    let prios = Array.make new_cap 0.0 in
    let seqs = Array.make new_cap 0 in
    let values = Array.make new_cap filler in
    Array.blit h.prios 0 prios 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.values 0 values 0 h.size;
    h.prios <- prios;
    h.seqs <- seqs;
    h.values <- values
  end

let push h prio value =
  ensure_room h value;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* the new entry's sequence number is the largest in the heap, so on
     equal priority it never passes its parent: only a strictly smaller
     priority moves the hole up *)
  let prios = h.prios and seqs = h.seqs and values = h.values in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if prio < prios.(parent) then begin
      prios.(!i) <- prios.(parent);
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else continue := false
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  values.(!i) <- value

let peek h = if h.size = 0 then None else Some (h.prios.(0), h.values.(0))

let min_prio h =
  if h.size = 0 then invalid_arg "Heap.min_prio: empty heap";
  h.prios.(0)

(* Remove the root: sift the hole it leaves down to where the last
   entry fits, in a single O(log n) walk.  Shared by [pop]/[pop_min].
   Entry order is priority first, insertion sequence second
   (stability); the comparisons are written out so that no priority is
   boxed to cross a function call. *)
let remove_root h =
  let prios = h.prios and seqs = h.seqs and values = h.values in
  let top = values.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    let prio = prios.(last) and seq = seqs.(last) and value = values.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then
            let pl = prios.(l) and pr = prios.(r) in
            if pr < pl || (pr = pl && seqs.(r) < seqs.(l)) then r else l
          else l
        in
        let pc = prios.(c) in
        if pc < prio || (pc = prio && seqs.(c) < seq) then begin
          prios.(!i) <- pc;
          seqs.(!i) <- seqs.(c);
          values.(!i) <- values.(c);
          i := c
        end
        else continue := false
      end
    done;
    prios.(!i) <- prio;
    seqs.(!i) <- seq;
    values.(!i) <- value
  end;
  top

let pop h =
  if h.size = 0 then None
  else
    let prio = h.prios.(0) in
    Some (prio, remove_root h)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  remove_root h

let clear h =
  (* Keep the backing arrays: a replica loop that clears between runs
     reuses the grown allocation instead of regrowing from 16.  Stale
     values stay reachable until overwritten by later pushes. *)
  h.size <- 0;
  h.next_seq <- 0

let to_sorted_list h =
  let copy =
    {
      prios = Array.sub h.prios 0 h.size;
      seqs = Array.sub h.seqs 0 h.size;
      values = Array.sub h.values 0 h.size;
      size = h.size;
      next_seq = h.next_seq;
      want = h.want;
    }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some e -> drain (e :: acc)
  in
  drain []
