"""Words projected to the 2g+2 points, for tests.

A permutation is its tuple of 1-based images: position p - 1 holds the
image of point p.
"""


def images_of_word(word, g):
    """The images of the points after the word, letters left to right."""
    images = list(range(1, 2 * g + 3))
    for i in word:
        # Appending s_i post-composes with (i, i+1): swap the two values.
        images = [i + 1 if v == i else i if v == i + 1 else v for v in images]
    return tuple(images)


def bubble_word(images):
    """A bubble-sort word of adjacent transpositions for the images."""
    pos = {v: idx for idx, v in enumerate(images)}
    appended = []
    for last in range(len(images) - 1, 0, -1):
        for v in range(1, last + 1):
            if pos[v] > pos[v + 1]:
                pos[v], pos[v + 1] = pos[v + 1], pos[v]
                appended.append(v)
    # appended sorts the images to the identity, so they are its reverse.
    return tuple(reversed(appended))


def cycles(images):
    """Disjoint cycles of length at least 2, each from its lowest point."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        while images[cycle[-1] - 1] != start:
            cycle.append(images[cycle[-1] - 1])
        seen.update(cycle)
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return out
