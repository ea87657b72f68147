"""The interned corpus built one token occurrence at a time.

``InternedCorpus.build`` tokenizes each distinct value once and gathers
the per-occurrence arrays with numpy.  This is the direct loop it
replaces: walk every profile, every ``(name, value)`` pair and every
token, interning attributes and tokens as they are first seen.  The
property suite requires the two to agree array for array and id for id.
"""

from __future__ import annotations

import numpy as np

from repro.data.corpus import TokenDictionary
from repro.utils.tokenize import tokenize


def corpus_arrays(dataset):
    """``(tokens, attributes, profile_ptr, attr_ids, token_ids)``.

    *tokens* lists the interned strings in id order and *attributes* the
    ``(source, name)`` references in attribute-id order.
    """
    dictionary = TokenDictionary()
    attributes: list[tuple[int, str]] = []
    attr_index: dict[tuple[int, str], int] = {}
    ptr = [0]
    flat_attrs: list[int] = []
    flat_tokens: list[int] = []
    offset2 = dataset.offset2 if dataset.is_clean_clean else dataset.num_profiles
    for gidx, profile in dataset.iter_profiles():
        source = 0 if gidx < offset2 else 1
        for name, value in profile.iter_pairs():
            ref = (source, name)
            if ref not in attr_index:
                attr_index[ref] = len(attributes)
                attributes.append(ref)
            for token in tokenize(value, min_length=1):
                flat_attrs.append(attr_index[ref])
                flat_tokens.append(dictionary.intern(token))
        ptr.append(len(flat_tokens))
    return (
        list(dictionary),
        tuple(attributes),
        np.asarray(ptr, dtype=np.int64),
        np.asarray(flat_attrs, dtype=np.int32),
        np.asarray(flat_tokens, dtype=np.int32),
    )
